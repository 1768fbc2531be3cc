#include "hetscale/scenarios/all.hpp"

#include "hetscale/scenarios/dist2d.hpp"
#include "hetscale/scenarios/fault.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/scenarios/profile.hpp"
#include "hetscale/scenarios/zoo.hpp"

namespace hetscale::scenarios {

void register_all_scenarios() {
  register_paper_scenarios();
  register_fault_scenarios();
  register_profile_scenarios();
  register_dist2d_scenarios();
  register_zoo_scenarios();
  register_large_p_scenarios();
}

}  // namespace hetscale::scenarios

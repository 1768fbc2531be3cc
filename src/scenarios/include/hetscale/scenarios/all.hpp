// The whole scenario catalogue in one call, for the programs that offer all
// of it: `hetscale_cli` and the bench launchers.
#pragma once

namespace hetscale::scenarios {

/// Register every scenario module's scenarios (paper, fault, profile,
/// dist2d, zoo, large_p) with the global registry. Idempotent, like each
/// module's own register function.
void register_all_scenarios();

}  // namespace hetscale::scenarios

#include "hetscale/run/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "hetscale/run/result.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::run {
namespace {

std::string json_of(const Value& value) {
  std::ostringstream os;
  value.write_json(os);
  return os.str();
}

TEST(Value, RendersEveryKind) {
  EXPECT_EQ(Value().kind(), Value::Kind::kNull);
  EXPECT_EQ(Value().text(), "");
  EXPECT_EQ(json_of(Value()), "null");

  EXPECT_EQ(json_of(Value(true)), "true");
  EXPECT_EQ(json_of(Value(false)), "false");
  EXPECT_EQ(Value(true).text(), "true");

  EXPECT_EQ(json_of(Value(42)), "42");
  EXPECT_EQ(json_of(Value(std::int64_t{-7})), "-7");

  EXPECT_EQ(Value::fixed(1.25, 2).text(), "1.25");
  EXPECT_EQ(json_of(Value::fixed(1.25, 2)), "1.25");
  EXPECT_EQ(Value::fixed(0.30000000001, 4).text(), "0.3000");

  EXPECT_EQ(json_of(Value("plain")), "\"plain\"");
}

TEST(Value, NonFiniteRealsBecomeNull) {
  EXPECT_EQ(json_of(Value::fixed(std::nan(""), 2)), "null");
  EXPECT_EQ(json_of(Value::real(INFINITY)), "null");
}

TEST(Value, JsonStringsAreEscaped) {
  EXPECT_EQ(json_of(Value("a\"b\\c\nd\te\r\x01")),
            "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
}

RunResult sample_result() {
  RunResult result;
  result.scenario = "demo";
  result.title = "Demo";
  result.columns = {"name", "value"};
  result.add_row({Value("plain"), Value(1)});
  result.add_row({Value("comma, quote\" and\nnewline"), Value::fixed(2.5, 1)});
  result.add_scalar("total", Value(3));
  result.text = "legacy text\n";
  return result;
}

TEST(RunResult, CsvEscapesSpecialFields) {
  EXPECT_EQ(sample_result().to_csv(),
            "name,value\n"
            "plain,1\n"
            "\"comma, quote\"\" and\nnewline\",2.5\n");
}

TEST(RunResult, CsvUnderHeadingsKeepsTheCells) {
  const RunResult result = sample_result();
  EXPECT_EQ(result.to_csv(result.columns), result.to_csv());
  EXPECT_EQ(result.to_csv({"Name", "Value"}),
            "Name,Value\n"
            "plain,1\n"
            "\"comma, quote\"\" and\nnewline\",2.5\n");
}

TEST(RunResult, TableRendersNullAsDashAndBooleansAsYesNo) {
  RunResult result;
  result.columns = {"system", "n", "wins"};
  result.add_row({Value("C2"), Value(310), Value(true)});
  result.add_row({Value("C4"), Value(), Value(false)});
  EXPECT_EQ(result.table({"System", "Rank N", "Wins"}, "Title"),
            "Title\n"
            "System  Rank N  Wins\n"
            "--------------------\n"
            "C2      310     yes \n"
            "C4      -       no  \n");
  EXPECT_EQ(result.table({"System", "Rank N", "Wins"}).rfind("System", 0), 0u)
      << "no title line without a title";
  // The CSV keeps the record's own cell text.
  EXPECT_EQ(result.to_csv(), "system,n,wins\nC2,310,true\nC4,,false\n");
}

TEST(RunResult, HeadingsMustMatchTheColumns) {
  const RunResult result = sample_result();
  EXPECT_THROW(result.table({"Name"}), hetscale::Error);
  EXPECT_THROW(result.table({"Name", "Value", "Extra"}), hetscale::Error);
  EXPECT_THROW(result.to_csv({"Name"}), hetscale::Error);
}

TEST(RunResult, JsonCarriesSchemaRowsAndScalars) {
  const std::string json = sample_result().to_json();
  EXPECT_NE(json.find("\"schema\": \"hetscale.run.result/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("[\"plain\", 1]"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 3"), std::string::npos);
}

TEST(RunResult, AddRowChecksWidth) {
  RunResult result;
  result.columns = {"a", "b"};
  EXPECT_THROW(result.add_row({Value(1)}), hetscale::Error);
}

TEST(ScenarioRegistry, RegisterFindAndReject) {
  register_scenario({"test_scenario_registry_demo", "a demo",
                     [](const RunContext&) { return RunResult{}; }});
  EXPECT_NE(find_scenario("test_scenario_registry_demo"), nullptr);
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);

  EXPECT_THROW(register_scenario({"test_scenario_registry_demo", "again",
                                  [](const RunContext&) {
                                    return RunResult{};
                                  }}),
               hetscale::Error);
  EXPECT_THROW(register_scenario(
                   {"", "", [](const RunContext&) { return RunResult{}; }}),
               hetscale::Error);
  EXPECT_THROW(register_scenario({"test_scenario_no_run", "no fn", nullptr}),
               hetscale::Error);
}

TEST(ScenarioRegistry, PaperCatalogueRegistersIdempotently) {
  scenarios::register_paper_scenarios();
  scenarios::register_paper_scenarios();
  for (const char* name :
       {"table1_marked_speed", "table2_ge_two_nodes",
        "table3_ge_required_rank", "table4_ge_scalability",
        "table5_mm_scalability", "table6_ge_predicted_rank",
        "table7_ge_predicted_scalability", "fig1_ge_speed_efficiency",
        "fig2_mm_speed_efficiency"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
}

TEST(ScenarioRegistry, ParseFormat) {
  EXPECT_EQ(parse_format("text"), OutputFormat::kText);
  EXPECT_EQ(parse_format("csv"), OutputFormat::kCsv);
  EXPECT_EQ(parse_format("json"), OutputFormat::kJson);
  EXPECT_THROW(parse_format("yaml"), hetscale::Error);
}

TEST(ScenarioRegistry, RenderSelectsTheRendering) {
  const RunResult result = sample_result();
  std::string storage;
  EXPECT_EQ(render(result, OutputFormat::kText, storage), "legacy text\n");
  EXPECT_EQ(render(result, OutputFormat::kCsv, storage), result.to_csv());
  EXPECT_EQ(render(result, OutputFormat::kJson, storage), result.to_json());
}

// Non-finite reals must degrade to JSON null through the *full* scenario
// path — registry lookup, run, render — not just in Value::write_json.
TEST(ScenarioRegistry, NonFiniteScalarsRenderAsNullThroughTheRegistry) {
  register_scenario(
      {"test_scenario_degenerate_values", "NaN/Inf handling",
       [](const RunContext&) {
         RunResult result;
         result.scenario = "test_scenario_degenerate_values";
         result.columns = {"metric", "value"};
         result.add_row({Value("ratio"), Value::real(std::nan(""))});
         result.add_scalar("nan_scalar", Value::real(std::nan("")));
         result.add_scalar("pos_overflow", Value::real(INFINITY));
         result.add_scalar("neg_overflow", Value::real(-INFINITY));
         return result;
       }});
  const Scenario* scenario = find_scenario("test_scenario_degenerate_values");
  ASSERT_NE(scenario, nullptr);
  Runner runner(1);
  const RunResult result = scenario->run({runner, OutputFormat::kJson});
  std::string storage;
  const std::string json = render(result, OutputFormat::kJson, storage);
  EXPECT_NE(json.find("[\"ratio\", null]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nan_scalar\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pos_overflow\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"neg_overflow\": null"), std::string::npos) << json;
  // Nothing a strict JSON parser would reject leaked through.
  EXPECT_EQ(json.find("nan("), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

// The PR's regression gate: a real scenario, run through the registry,
// emits byte-identical documents at jobs=1 and jobs=8 in every format.
TEST(ScenarioRegistry, ScenarioOutputIsWorkerCountInvariant) {
  scenarios::register_paper_scenarios();
  const Scenario* scenario = find_scenario("table2_ge_two_nodes");
  ASSERT_NE(scenario, nullptr);

  Runner sequential(1);
  const RunResult a = scenario->run({sequential, OutputFormat::kText});
  Runner parallel(8);
  const RunResult b = scenario->run({parallel, OutputFormat::kText});

  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace hetscale::run

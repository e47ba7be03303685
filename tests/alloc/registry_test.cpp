// Allocator registry: CLI spec parsing, option validation, catalogue and
// construction parity with the legacy engine-enum path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "smr/alloc/registry.hpp"
#include "smr/common/error.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/workload/puma.hpp"
#include "support/run_result_equal.hpp"

namespace smr::alloc {
namespace {

TEST(PolicySpec, ParsesBareName) {
  const PolicySpec spec = parse_policy_spec("Karma");
  EXPECT_EQ(spec.name, "karma");  // lowercased
  EXPECT_TRUE(spec.options.empty());
  EXPECT_EQ(spec.to_string(), "karma");
}

TEST(PolicySpec, ParsesOptionsInDeclarationOrder) {
  const PolicySpec spec = parse_policy_spec("karma:init_credits=50,decay=0.99");
  EXPECT_EQ(spec.name, "karma");
  ASSERT_EQ(spec.options.size(), 2u);
  EXPECT_EQ(spec.options[0].first, "init_credits");
  EXPECT_EQ(spec.options[0].second, "50");
  EXPECT_EQ(spec.options[1].first, "decay");
  EXPECT_EQ(spec.options[1].second, "0.99");
  EXPECT_EQ(spec.to_string(), "karma:init_credits=50,decay=0.99");
}

TEST(PolicySpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_policy_spec(""), SmrError);
  EXPECT_THROW(parse_policy_spec(":k=v"), SmrError);
  EXPECT_THROW(parse_policy_spec("karma:novalue"), SmrError);
  EXPECT_THROW(parse_policy_spec("karma:=5"), SmrError);
}

TEST(PolicySpec, ParsesSemicolonSeparatedList) {
  const std::vector<PolicySpec> specs =
      parse_policy_list("hadoopv1;karma:decay=0.99;gamecapacity");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "hadoopv1");
  EXPECT_EQ(specs[1].name, "karma");
  ASSERT_EQ(specs[1].options.size(), 1u);
  EXPECT_EQ(specs[2].name, "gamecapacity");
  EXPECT_TRUE(parse_policy_list("").empty());
  EXPECT_EQ(parse_policy_list("karma;;hadoopv1").size(), 2u);  // blanks skipped
}

TEST(PolicyOptions, TypedGettersConsumeKeys) {
  PolicyOptions options(parse_policy_spec("x:a=1.5,b=3,c=true,d=hello"));
  EXPECT_EQ(options.get_double("a", 0.0), 1.5);
  EXPECT_EQ(options.get_int("b", 0), 3);
  EXPECT_TRUE(options.get_bool("c", false));
  EXPECT_EQ(options.get_string("d", ""), "hello");
  EXPECT_EQ(options.get_double("missing", 7.0), 7.0);  // fallback
  EXPECT_NO_THROW(options.finish());
}

TEST(PolicyOptions, FinishRejectsUnknownKeys) {
  PolicyOptions options(parse_policy_spec("karma:decay=0.9,typo_key=1"));
  options.get_double("decay", 1.0);
  EXPECT_THROW(options.finish(), SmrError);
}

TEST(AllocatorRegistry, CatalogueListsAllBuiltins) {
  const std::vector<std::string> names = AllocatorRegistry::instance().catalogue();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected : {"gamecapacity", "hadoopv1", "hybridjobdriven",
                               "karma", "smapreduce", "yarn"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "catalogue is missing " << expected;
  }
}

TEST(AllocatorRegistry, CreatesEveryCatalogueEntry) {
  const driver::ExperimentConfig base =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  const PolicyContext context = driver::policy_context(base);
  for (const std::string& name : AllocatorRegistry::instance().catalogue()) {
    PolicySpec spec;
    spec.name = name;
    const auto policy = AllocatorRegistry::instance().create(spec, context);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_FALSE(policy->name().empty()) << name;
  }
}

TEST(AllocatorRegistry, CreateIsCaseInsensitiveAndRejectsUnknownNames) {
  const driver::ExperimentConfig base =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  const PolicyContext context = driver::policy_context(base);
  EXPECT_NE(AllocatorRegistry::instance().create(parse_policy_spec("KARMA"),
                                                 context),
            nullptr);
  EXPECT_THROW(AllocatorRegistry::instance().create(
                   parse_policy_spec("no-such-policy"), context),
               SmrError);
  EXPECT_FALSE(AllocatorRegistry::instance().known("no-such-policy"));
  EXPECT_TRUE(AllocatorRegistry::instance().known("smapreduce"));
}

TEST(AllocatorRegistry, UnknownOptionKeyIsAnError) {
  const driver::ExperimentConfig base =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  EXPECT_THROW(AllocatorRegistry::instance().create(
                   parse_policy_spec("karma:bogus_option=1"),
                   driver::policy_context(base)),
               SmrError);
}

TEST(AllocatorRegistry, RegistrySpecMatchesEngineEnumLabels) {
  // The legacy engines must be reachable both ways with identical display
  // labels, so sweep curves keep their names when the driver routes
  // through the registry.
  for (driver::EngineKind engine : driver::all_engines()) {
    driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(engine);
    const std::string via_enum = driver::policy_label(config);
    config.policy = parse_policy_spec(driver::engine_name(engine));
    EXPECT_EQ(driver::policy_label(config), via_enum);
  }
}

TEST(AllocatorRegistry, RegistryBuiltPolicyRunsBitIdenticalToEnumBuilt) {
  // `--policy=<engine>` must build the very policy the engine enum builds:
  // the same run, bit for bit, for all three engines.
  mapreduce::JobSpec spec = workload::make_puma_job(workload::Puma::kTerasort, 2 * kGiB);
  spec.reduce_tasks = 8;
  const std::vector<driver::JobSubmission> jobs = {{spec, 0.0}};
  for (driver::EngineKind engine : driver::all_engines()) {
    SCOPED_TRACE(driver::engine_name(engine));
    driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(engine);
    config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
    config.trials = 1;
    const metrics::RunResult via_enum = driver::run_experiment(config, jobs);
    config.policy = parse_policy_spec(driver::engine_name(engine));
    const metrics::RunResult via_registry = driver::run_experiment(config, jobs);
    ASSERT_TRUE(via_enum.completed);
    expect_bitwise_equal(via_enum, via_registry);
  }
}

}  // namespace
}  // namespace smr::alloc

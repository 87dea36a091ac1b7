#include "switchsim/p4_emit.hpp"

#include "switchsim/resources.hpp"

#include <gtest/gtest.h>

namespace iguard::switchsim {
namespace {

// Minimal deployment: tiny vote whitelists with known rule counts.
class P4EmitTest : public ::testing::Test {
 protected:
  P4EmitTest() {
    ml::Matrix fake(2, 13);
    for (std::size_t j = 0; j < 13; ++j) fake(1, j) = 100.0;
    flq_.fit(fake);
    ml::Matrix fake_pl(2, 4);
    for (std::size_t j = 0; j < 4; ++j) fake_pl(1, j) = 100.0;
    plq_.fit(fake_pl);

    fl_.tree_count = 2;
    fl_.tables.emplace_back(std::vector<rules::RangeRule>{
        {std::vector<rules::FieldRange>(13, {0, 50}), 0, 0},
        {std::vector<rules::FieldRange>(13, {51, 99}), 0, 1}});
    fl_.tables.emplace_back(std::vector<rules::RangeRule>{
        {std::vector<rules::FieldRange>(13, {0, 99}), 0, 0}});
    pl_.tree_count = 1;
    pl_.tables.emplace_back(std::vector<rules::RangeRule>{
        {std::vector<rules::FieldRange>(4, {0, 10}), 0, 0}});

    model_ = core::build_bundle(1, fl_, flq_, pl_, plq_);
  }

  rules::Quantizer flq_{16}, plq_{16};
  core::VoteWhitelist fl_, pl_;
  DeployedModel model_;
};

TEST_F(P4EmitTest, ProgramContainsAllTables) {
  const std::string p4 = emit_p4_program(model_);
  EXPECT_NE(p4.find("fl_whitelist_tree0"), std::string::npos);
  EXPECT_NE(p4.find("fl_whitelist_tree1"), std::string::npos);
  EXPECT_NE(p4.find("pl_whitelist_tree0"), std::string::npos);
  EXPECT_NE(p4.find("table blacklist"), std::string::npos);
  EXPECT_NE(p4.find("#include <v1model.p4>"), std::string::npos);
}

TEST_F(P4EmitTest, RegistersMatchResourceModel) {
  // Nine packed register arrays, as DeploymentSpec::stateful_registers.
  const std::string p4 = emit_p4_program(model_);
  std::size_t regs = 0;
  for (std::size_t pos = p4.find("register<"); pos != std::string::npos;
       pos = p4.find("register<", pos + 1)) {
    ++regs;
  }
  EXPECT_EQ(regs, DeploymentSpec{}.stateful_registers);
}

TEST_F(P4EmitTest, TableSizesReflectRuleCounts) {
  const std::string p4 = emit_p4_program(model_);
  EXPECT_NE(p4.find("size = 2;"), std::string::npos);  // tree 0 has 2 rules
}

TEST_F(P4EmitTest, OptionsAreStamped) {
  P4EmitOptions o;
  o.packet_threshold_n = 24;
  o.idle_timeout_us = 5'000'000;
  const std::string p4 = emit_p4_program(model_, o);
  EXPECT_NE(p4.find("packet threshold n = 24"), std::string::npos);
  EXPECT_NE(p4.find("5000000 us"), std::string::npos);
}

TEST_F(P4EmitTest, EntriesOnePerRuleWithRanges) {
  const std::string e = emit_table_entries(model_);
  std::size_t lines = 0;
  for (char c : e) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);  // 2 + 1 FL rules + 1 PL rule
  EXPECT_NE(e.find("table_add fl_whitelist_tree0 vote_fl 0->50"), std::string::npos);
  EXPECT_NE(e.find("table_add pl_whitelist_tree0 vote_pl 0->10"), std::string::npos);
}

TEST_F(P4EmitTest, NoPlModelIsFine) {
  const std::string p4 = emit_p4_program(core::build_bundle(1, fl_, flq_));
  EXPECT_EQ(p4.find("pl_whitelist_tree0"), std::string::npos);
  EXPECT_NE(p4.find("fl_whitelist_tree0"), std::string::npos);
}

}  // namespace
}  // namespace iguard::switchsim

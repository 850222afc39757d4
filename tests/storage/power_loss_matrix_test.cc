// Crash-point matrix: run an insert/delete/flush workload against a
// FaultInjectionEnv, crash at EVERY mutating syscall index (with a torn
// write at the crash point), then reopen and assert that
//
//   * fsck reports a clean index, and
//   * queries return exactly the state of the last successful Flush()
//
// under both durability levels. kProcessCrash is checked against the
// at-crash file state (completed writes survive a process crash);
// kPowerLoss is additionally checked after SimulatePowerLoss() rewinds
// every file to its fsync'd state.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "common/fault_injection_env.h"
#include "vist/fsck.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

std::string DocText(int i) {
  std::string tag = "u";
  tag += std::to_string(i);
  return "<doc><" + tag + ">t</" + tag + "></doc>";
}

// Inserts docs 1-4 with a delete in the middle, flushing after every step.
// Each op is allowed to fail (the env crashes mid-run); the returned set is
// the live documents as of the last Flush() that fully succeeded.
std::set<uint64_t> RunWorkload(VistIndex* index) {
  std::set<uint64_t> live, committed;
  auto flush = [&] {
    if (index->Flush().ok()) committed = live;
  };
  for (int i = 1; i <= 4; ++i) {
    auto doc = xml::Parse(DocText(i));
    if (doc.ok() && index->InsertDocument(*doc->root(), i).ok()) {
      live.insert(i);
    }
    if (i == 3) {
      auto doc1 = xml::Parse(DocText(1));
      if (doc1.ok() && index->DeleteDocument(*doc1->root(), 1).ok()) {
        live.erase(1);
      }
    }
    flush();
  }
  return committed;
}

class PowerLossMatrixTest : public ::testing::TestWithParam<DurabilityLevel> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_matrix_" + std::to_string(getpid()) + "_" +
             std::to_string(static_cast<int>(GetParam()))))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A fresh, committed, empty index on disk.
  void CreateIndex() {
    std::filesystem::remove_all(dir_);
    VistOptions options;
    options.page_size = 512;
    options.durability = GetParam();
    auto index = VistIndex::Create(dir_, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
  }

  std::unique_ptr<VistIndex> OpenWithEnv(Env* env) {
    VistOptions options;
    options.durability = GetParam();
    options.env = env;
    auto index = VistIndex::Open(dir_, options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return index.ok() ? std::move(*index) : nullptr;
  }

  std::string dir_;
};

TEST_P(PowerLossMatrixTest, EveryCrashPointRecoversLastSyncState) {
  // Fault-free run to size the matrix.
  CreateIndex();
  uint64_t total_mutations = 0;
  {
    FaultInjectionEnv env;
    auto index = OpenWithEnv(&env);
    ASSERT_NE(index, nullptr);
    std::set<uint64_t> committed = RunWorkload(index.get());
    EXPECT_EQ(committed, (std::set<uint64_t>{2, 3, 4}));
    total_mutations = env.mutation_count();
  }
  ASSERT_GT(total_mutations, 10u);

  for (uint64_t k = 0; k < total_mutations; ++k) {
    SCOPED_TRACE("crash at mutation " + std::to_string(k));
    CreateIndex();
    FaultInjectionEnv env;
    std::set<uint64_t> committed;
    {
      auto index = OpenWithEnv(&env);
      ASSERT_NE(index, nullptr);
      env.set_crash_at_mutation(static_cast<int64_t>(k), /*torn_bytes=*/13);
      committed = RunWorkload(index.get());
      ASSERT_TRUE(env.crashed());
      index->SimulateCrashForTesting();  // drop handles without flushing
    }
    if (GetParam() == DurabilityLevel::kPowerLoss) {
      env.SimulatePowerLoss();
    }

    // fsck (which performs journal rollback, like any open) must find a
    // structurally clean index...
    auto report = RunFsck(dir_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();

    // ...and the visible documents must be exactly the last-Sync state.
    VistOptions options;
    auto index = VistIndex::Open(dir_, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (uint64_t i = 1; i <= 4; ++i) {
      auto ids = (*index)->Query("/doc/u" + std::to_string(i));
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      if (committed.count(i) != 0) {
        EXPECT_EQ(ids->size(), 1u) << "doc " << i << " lost";
        if (!ids->empty()) {
          EXPECT_EQ((*ids)[0], i);
        }
      } else {
        EXPECT_TRUE(ids->empty()) << "uncommitted doc " << i << " survived";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Durability, PowerLossMatrixTest,
                         ::testing::Values(DurabilityLevel::kProcessCrash,
                                           DurabilityLevel::kPowerLoss));

}  // namespace
}  // namespace vist

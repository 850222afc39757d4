// Server concurrency stress (label: stress, rerun under TSan by
// scripts/check_tsan.sh): many query clients hammer the server while one
// writer client churns inserts and deletes through the same wire, then a
// graceful Stop drains everything mid-traffic. The assertions are about
// invariants, not throughput: every response either succeeds or carries an
// explicit wire status, the index passes CheckIntegrity afterwards, and
// every admitted request was answered before its connection closed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/caching_index.h"
#include "server/client.h"
#include "server/server.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace server {
namespace {

int Scaled(int base) {
  const char* scale = std::getenv("VIST_TEST_SCALE");
  if (scale == nullptr) return base;
  const double factor = std::atof(scale);
  const int value = static_cast<int>(base * (factor > 0 ? factor : 1.0));
  return value < 1 ? 1 : value;
}

std::string UniqueDoc(uint64_t i) {
  std::string tag = "u";
  tag += std::to_string(i);
  return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
         tag + "></doc>";
}

TEST(ServerStressTest, ManyReadersOneWriterThroughTheWire) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vist_server_stress_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  VistOptions vist_options;
  vist_options.store_documents = true;  // the readers run verified queries
  auto created = VistIndex::Create(dir, vist_options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();

  constexpr int kBaseDocs = 64;
  for (uint64_t i = 0; i < kBaseDocs; ++i) {
    auto doc = xml::Parse(UniqueDoc(i));
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(index->InsertDocument(*doc->root(), i).ok());
  }

  exec::CachingIndex cache(index.get());
  VistIndexWriter writer(index.get());
  ServerOptions options;
  options.num_workers = 4;
  VistServer server(&cache, &writer, options);
  ASSERT_TRUE(server.Start().ok());

  const int kReaders = 6;
  const int kOpsPerReader = Scaled(300);
  const int kWriterOps = Scaled(150);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oks{0};
  std::atomic<uint64_t> rejections{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerReader && !stop.load(); ++i) {
        const uint64_t target = (t * 31 + i) % kBaseDocs;
        auto ids =
            (*client)->Query("/doc/u" + std::to_string(target),
                             /*verify=*/i % 7 == 0);
        if (ids.ok()) {
          oks.fetch_add(1);
        } else if (ids.status().IsIOError()) {
          // kBusy / kShuttingDown / connection closed during the drain —
          // all legitimate under load; anything else is a bug.
          rejections.fetch_add(1);
          break;
        } else {
          ADD_FAILURE() << ids.status().ToString();
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      failures.fetch_add(1);
      return;
    }
    // Insert/delete pairs over a rotating id window: every delete targets
    // the document the previous iteration inserted, so ids stay unique.
    for (int i = 0; i < kWriterOps && !stop.load(); ++i) {
      const uint64_t doc_id = kBaseDocs + (i / 2) % 16;
      Status status = (i % 2 == 0)
                          ? (*client)->Insert(UniqueDoc(doc_id), doc_id)
                          : (*client)->Delete(UniqueDoc(doc_id), doc_id);
      if (!status.ok() && !status.IsIOError() && !status.IsNotFound()) {
        ADD_FAILURE() << status.ToString();
        failures.fetch_add(1);
        break;
      }
    }
  });

  for (auto& t : threads) t.join();
  stop.store(true);
  server.Stop();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(oks.load(), 0u);

  auto report = index->CheckIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->problems.size() << " problems";

  index.reset();
  std::filesystem::remove_all(dir);
}

TEST(ServerStressTest, StopMidTrafficDrainsCleanly) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vist_server_stress_stop_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  auto created = VistIndex::Create(dir, VistOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();
  for (uint64_t i = 0; i < 16; ++i) {
    auto doc = xml::Parse(UniqueDoc(i));
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(index->InsertDocument(*doc->root(), i).ok());
  }

  VistIndexWriter writer(index.get());
  VistServer server(index.get(), &writer, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Clients run open-ended; Stop() lands mid-traffic and must leave every
  // client with either a response or a clean close — never a hang.
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (uint64_t i = 0; !done.load(); ++i) {
        auto ids = (*client)->Query("/doc/u" + std::to_string((t + i) % 16));
        if (!ids.ok()) break;  // drain reached this connection
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  done.store(true);
  for (auto& t : threads) t.join();

  auto report = index->CheckIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());

  index.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace vist

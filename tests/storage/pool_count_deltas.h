// Buffer-pool hit and miss counts for storage tests, read from the metrics
// registry (storage.buffer_pool.{hits,misses}) as deltas since the helper
// was constructed. gtest runs the tests of one binary one at a time, so a
// delta taken around a test's measured phase belongs to that phase alone.

#ifndef VIST_TESTS_STORAGE_POOL_COUNT_DELTAS_H_
#define VIST_TESTS_STORAGE_POOL_COUNT_DELTAS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace vist {

class PoolCountDeltas {
 public:
  uint64_t hits() const { return hits_.value() - hits_before_; }
  uint64_t misses() const { return misses_.value() - misses_before_; }

 private:
  obs::Counter& hits_ = obs::GetCounter("storage.buffer_pool.hits");
  obs::Counter& misses_ = obs::GetCounter("storage.buffer_pool.misses");
  const uint64_t hits_before_ = hits_.value();
  const uint64_t misses_before_ = misses_.value();
};

}  // namespace vist

#endif  // VIST_TESTS_STORAGE_POOL_COUNT_DELTAS_H_

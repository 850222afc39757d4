// Test helper: the pager's on-disk free-page chain, head first, read the
// way the offline checker reads it (checksummed page reads from
// freelist_head()). A link out of range, a cycle or an unreadable page is
// reported as a test failure and ends the walk.

#ifndef VIST_TESTS_STORAGE_FREELIST_WALK_H_
#define VIST_TESTS_STORAGE_FREELIST_WALK_H_

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/coding.h"
#include "storage/pager.h"

namespace vist {

inline std::vector<PageId> WalkFreelist(Pager* pager) {
  std::vector<PageId> chain;
  std::set<PageId> seen;
  std::vector<char> buf(pager->page_size());
  for (PageId id = pager->freelist_head(); id != kInvalidPageId;
       id = DecodeFixed64LE(buf.data())) {
    if (id >= pager->page_count()) {
      ADD_FAILURE() << "freelist link " << id << " out of range";
      break;
    }
    if (!seen.insert(id).second) {
      ADD_FAILURE() << "freelist cycle through page " << id;
      break;
    }
    Status s = pager->ReadPage(id, buf.data());
    if (!s.ok()) {
      ADD_FAILURE() << "freelist page " << id << ": " << s.ToString();
      break;
    }
    chain.push_back(id);
  }
  return chain;
}

}  // namespace vist

#endif  // VIST_TESTS_STORAGE_FREELIST_WALK_H_

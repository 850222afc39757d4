// RIST (§3.3): the statically labeled variant of the index.
//
// RIST materializes the sequence trie, labels it by one preorder traversal
// (<n, size> with n = preorder rank, size = descendant count), and bulk
// loads the labels into the same combined D-/S-Ancestor + DocId B+ trees
// ViST uses; querying then runs the shared Algorithm-2 matcher. The price
// of the exact labels is staticness: any later insertion would shift them
// (§3.4 opening paragraph), which is exactly what ViST's dynamic scopes
// fix.
//
// Label convention: the stored scope size is the descendant count + 1, so
// a node's descendants are the labels in (n, n+size) and the documents at
// or under it are the DocId keys in [n, n+size) — the same convention the
// matcher uses for ViST scopes.

#ifndef VIST_VIST_RIST_BUILDER_H_
#define VIST_VIST_RIST_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"
#include "storage/tree_file.h"
#include "vist/matcher.h"

namespace vist {

struct RistOptions {
  uint32_t page_size = 4096;
  size_t buffer_pool_pages = 1024;
  size_t max_alternatives = 64;
};

class RistIndex {
 public:
  /// Builds a static index over `documents` (doc id, sequence) in `dir`.
  /// The caller's symbol table (used to build the sequences) is borrowed
  /// for query compilation and must outlive the index.
  static Result<std::unique_ptr<RistIndex>> Build(
      const std::string& dir,
      const std::vector<std::pair<uint64_t, Sequence>>& documents,
      const SymbolTable* symtab, const RistOptions& options = {});

  RistIndex(const RistIndex&) = delete;
  RistIndex& operator=(const RistIndex&) = delete;

  /// Evaluates a path expression; returns sorted matching doc ids.
  /// `profile` (optional) receives the per-query cost accounting (see
  /// obs/query_profile.h).
  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      obs::QueryProfile* profile = nullptr);

  Result<std::vector<uint64_t>> QueryCompiled(
      const query::CompiledQuery& compiled,
      obs::QueryProfile* profile = nullptr);

  /// Page-file size in bytes (index-size experiments).
  uint64_t size_bytes() const { return file_->size_bytes(); }
  /// Trie nodes indexed.
  uint64_t num_nodes() const { return num_nodes_; }

 private:
  RistIndex(const SymbolTable* symtab, RistOptions options)
      : symtab_(symtab), options_(options) {}

  const SymbolTable* symtab_;
  RistOptions options_;
  // Declared before the trees (destroyed after them): they point into it.
  std::unique_ptr<TreeFile> file_;
  std::unique_ptr<BTree> entry_tree_;
  std::unique_ptr<BTree> docid_tree_;
  /// The one committed version (the index is static); every query reads
  /// through it.
  std::shared_ptr<const Version> version_;
  uint64_t num_nodes_ = 0;
  uint64_t max_depth_ = 0;
};

}  // namespace vist

#endif  // VIST_VIST_RIST_BUILDER_H_

#include "seq/symbol_table.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/coding.h"
#include "common/env.h"
#include "common/hash.h"

namespace vist {

Symbol SymbolTable::Intern(std::string_view name) {
  WriterLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return it->second;
  names_.emplace_back(name);
  const Symbol symbol = static_cast<Symbol>(names_.size());
  by_name_.emplace(names_.back(), symbol);
  return symbol;
}

Result<Symbol> SymbolTable::Lookup(std::string_view name) const {
  ReaderLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("unknown name '" + std::string(name) + "'");
  }
  return it->second;
}

Result<std::string> SymbolTable::Name(Symbol symbol) const {
  ReaderLock lock(mu_);
  if (!IsNameSymbol(symbol) || symbol > names_.size()) {
    return Status::InvalidArgument("not an interned name symbol");
  }
  return names_[symbol - 1];
}

Symbol SymbolTable::ValueSymbol(const Slice& value) {
  return Hash64(value) | kValueSymbolBit;
}

size_t SymbolTable::size() const {
  ReaderLock lock(mu_);
  return names_.size();
}

Status SymbolTable::Save(const std::string& path) const {
  std::string blob;
  {
    // Serialize under the lock, do the file I/O outside it.
    ReaderLock lock(mu_);
    PutVarint64(&blob, names_.size());
    for (const std::string& name : names_) {
      PutLengthPrefixedSlice(&blob, name);
    }
  }
  // Write-to-temp + fsync + rename: a crash mid-save leaves the previous
  // table intact instead of a truncated blob.
  Env* env = Env::Default();
  const std::string tmp = path + ".tmp";
  Env::OpenOptions options;
  options.truncate = true;
  VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> out, env->Open(tmp, options));
  VIST_RETURN_IF_ERROR(out->WriteAt(0, blob.data(), blob.size()));
  VIST_RETURN_IF_ERROR(out->Sync());
  out.reset();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " into place");
  }
  return env->SyncDir(DirectoryOf(path));
}

Result<SymbolTable> SymbolTable::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string blob = buffer.str();

  Slice input(blob);
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("bad symbol table header in " + path);
  }
  SymbolTable table;
  for (uint64_t i = 0; i < count; ++i) {
    Slice name;
    if (!GetLengthPrefixedSlice(&input, &name)) {
      return Status::Corruption("truncated symbol table " + path);
    }
    table.Intern(name.view());
  }
  if (!input.empty()) {
    return Status::Corruption("trailing bytes in symbol table " + path);
  }
  return table;
}

}  // namespace vist

#include "jit/compiler.h"

#include <dlfcn.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jit/codegen.h"
#include "util/check.h"

#ifndef FI_SRC_DIR
#define FI_SRC_DIR "."
#endif

namespace flashinfer::jit {

namespace {

std::mutex g_mu;
std::unordered_map<uint64_t, std::shared_ptr<CompiledKernel>> g_registry;  // By CompileKey.
JitCacheStats g_stats;

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void EnsureDir(const std::string& path) {
  ::mkdir(path.c_str(), 0755);  // EEXIST is fine.
}

int RunCommand(const std::string& cmd) { return std::system(cmd.c_str()); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Appends the name and bytes of every header in the `#include "..."` closure
/// of `text` that exists under `root` to `out`, depth first, each once.
/// Names that do not resolve under `root` are skipped.
void AppendIncludeClosure(const std::string& text, const std::string& root,
                          std::vector<std::string>& seen, std::string& out) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') continue;
    pos = line.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos || line.compare(pos, 7, "include") != 0) continue;
    const size_t open = line.find_first_not_of(" \t", pos + 7);
    if (open == std::string::npos || line[open] != '"') continue;
    const size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string name = line.substr(open + 1, close - open - 1);
    const std::string path = root + "/" + name;
    if (std::find(seen.begin(), seen.end(), name) != seen.end() || !FileExists(path)) continue;
    seen.push_back(name);
    const std::string header = ReadFile(path);
    out.append(name).append(1, '\0').append(header).append(1, '\0');
    AppendIncludeClosure(header, root, seen, out);
  }
}

std::shared_ptr<CompiledKernel> LoadSo(const std::string& so_path) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    FI_CHECK(false);
  }
  auto* fn = reinterpret_cast<WorkItemFn>(::dlsym(handle, kEntrySymbol));
  FI_CHECK(fn != nullptr);
  auto* flags_fn = reinterpret_cast<uint32_t (*)()>(::dlsym(handle, kFlagsSymbol));
  FI_CHECK(flags_fn != nullptr);
  const uint32_t flags = flags_fn();
  return std::make_shared<CompiledKernel>(handle, fn, (flags & 1u) != 0, (flags & 2u) != 0,
                                          so_path);
}

}  // namespace

uint64_t CompileKey(const std::string& source, const JitOptions& opts,
                    const std::string& include_root) {
  std::vector<std::string> seen;
  std::string headers;
  AppendIncludeClosure(source, include_root, seen, headers);
  uint64_t h = 0xCBF29CE484222325ull;
  for (const std::string* part :
       {&source, &opts.compiler, &opts.extra_flags, &std::as_const(headers)}) {
    for (unsigned char c : *part) {
      h ^= c;
      h *= 0x100000001B3ull;
    }
    h ^= 0xFF;  // Part separator.
    h *= 0x100000001B3ull;
  }
  return h;
}

CompiledKernel::CompiledKernel(void* dl_handle, WorkItemFn fn, bool use_softmax,
                               bool has_qk_transform, std::string so_path)
    : dl_handle_(dl_handle),
      fn_(fn),
      use_softmax_(use_softmax),
      has_qk_transform_(has_qk_transform),
      so_path_(std::move(so_path)) {}

CompiledKernel::~CompiledKernel() {
  if (dl_handle_ != nullptr) ::dlclose(dl_handle_);
}

bool CompilerAvailable(const JitOptions& opts) {
  const std::string cmd = opts.compiler + " --version > /dev/null 2>&1";
  return RunCommand(cmd) == 0;
}

std::shared_ptr<CompiledKernel> CompileVariant(const AttentionSpecDesc& spec,
                                               const JitOptions& opts) {
  const std::string source = GenerateSource(spec);  // Validates the spec.
  const uint64_t key = CompileKey(source, opts, FI_SRC_DIR);

  std::lock_guard<std::mutex> lock(g_mu);
  if (const auto it = g_registry.find(key); it != g_registry.end()) {
    ++g_stats.memory_hits;
    return it->second;
  }

  EnsureDir(opts.cache_dir);
  std::ostringstream base;
  base << opts.cache_dir << "/" << spec.name << "_" << std::hex << key;
  const std::string src_path = base.str() + ".cpp";
  const std::string so_path = base.str() + ".so";
  const std::string log_path = base.str() + ".log";

  if (!FileExists(so_path)) {
    {
      std::ofstream out(src_path);
      FI_CHECK(out.good());
      out << source;
    }
    std::ostringstream cmd;
    cmd << opts.compiler << " -std=c++20 " << opts.extra_flags
        << " -fPIC -shared -I" << FI_SRC_DIR << " " << src_path << " -o " << so_path << " 2> "
        << log_path;
    if (opts.verbose) {
      std::fprintf(stderr, "[fi-jit] %s\n", cmd.str().c_str());
    }
    const int rc = RunCommand(cmd.str());
    if (rc != 0) {
      std::fprintf(stderr, "[fi-jit] compilation of variant '%s' failed:\n%s\n",
                   spec.name.c_str(), ReadFile(log_path).c_str());
      FI_CHECK(false);
    }
    ++g_stats.compilations;
  } else {
    ++g_stats.disk_hits;
  }

  auto kernel = LoadSo(so_path);
  FI_CHECK_EQ(kernel->use_softmax(), spec.use_softmax);
  FI_CHECK_EQ(kernel->has_qk_transform(), spec.has_qk_transform);
  g_registry.emplace(key, kernel);
  return kernel;
}

JitCacheStats GetJitCacheStats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_stats;
}

void ResetJitCacheStats() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_stats = {};
}

}  // namespace flashinfer::jit

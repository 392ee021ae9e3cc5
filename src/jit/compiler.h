// JIT compilation pipeline: spec -> generated C++ -> g++ -shared ->
// dlopen -> type-erased kernel (the host-compiler analog of FlashInfer's
// NVRTC/torch-extension path, Sec. 3.2.3).
//
// Compiled objects are cached twice: an in-process registry (repeat
// CompileVariant calls return the same handle) and an on-disk cache of .so
// files (repeat processes skip compilation entirely), matching the paper's
// "kernels are JIT-compiled at init time and cached for reuse". Both are keyed
// by CompileKey: the generated source, the compiler, its flags and the project
// headers the source includes, so a change to the codegen, the kernel entry
// ABI or the microkernel headers never loads a stale object.
#pragma once

#include <memory>
#include <string>

#include "core/kernel_dispatch.h"
#include "jit/spec.h"

namespace flashinfer::jit {

struct JitOptions {
  /// Directory for generated sources and .so files.
  std::string cache_dir = "/tmp/flashinfer_sim_jit";
  std::string compiler = "g++";
  /// The kernel is compiled on the host that runs it, so it targets that
  /// host's vector ISA; -fopenmp-simd honors the microkernel's `omp simd`
  /// loops without pulling in the OpenMP runtime.
  std::string extra_flags = "-O2 -march=native -fopenmp-simd";
  bool verbose = false;
};

/// Cache key of `source` compiled under `opts`: FNV-1a over the source, the
/// compiler, its flags, and the name and bytes of every header in the
/// source's `#include "..."` closure that resolves under `include_root`
/// (CompileVariant passes the simulator's own src/, its -I path).
uint64_t CompileKey(const std::string& source, const JitOptions& opts,
                    const std::string& include_root);

/// A loaded kernel; keeps its dlopen handle alive for the lifetime of the
/// object (kernel function pointers must not outlive it).
class CompiledKernel {
 public:
  CompiledKernel(void* dl_handle, WorkItemFn fn, bool use_softmax, bool has_qk_transform,
                 std::string so_path);
  ~CompiledKernel();
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  WorkItemFn fn() const noexcept { return fn_; }
  bool use_softmax() const noexcept { return use_softmax_; }
  bool has_qk_transform() const noexcept { return has_qk_transform_; }
  const std::string& so_path() const noexcept { return so_path_; }

 private:
  void* dl_handle_;
  WorkItemFn fn_;
  bool use_softmax_;
  bool has_qk_transform_;
  std::string so_path_;
};

/// Returns true when a working host compiler is available (tests skip the
/// real-compilation paths otherwise).
bool CompilerAvailable(const JitOptions& opts = {});

/// Compiles (or loads from cache) the kernel for `spec`. Aborts on compile
/// errors with the compiler log. Thread-compatible (callers serialize).
std::shared_ptr<CompiledKernel> CompileVariant(const AttentionSpecDesc& spec,
                                               const JitOptions& opts = {});

/// In-process cache statistics (for tests and the quickstart example).
struct JitCacheStats {
  int64_t compilations = 0;
  int64_t memory_hits = 0;
  int64_t disk_hits = 0;
};
JitCacheStats GetJitCacheStats();
void ResetJitCacheStats();

}  // namespace flashinfer::jit

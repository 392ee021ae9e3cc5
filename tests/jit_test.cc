#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "jit/codegen.h"
#include "jit/compiler.h"
#include "jit/interpreted.h"
#include "test_util.h"

namespace flashinfer::jit {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

AttentionSpecDesc SigmoidSpec() {
  // The paper's FlashSigmoid example (Fig. 5), as a JIT spec.
  AttentionSpecDesc spec;
  spec.name = "FlashSigmoid";
  spec.kv_dtype = DType::kF32;
  spec.use_softmax = false;
  spec.extra_params = {{"scale", 1.0f}, {"bias", 0.0f}};
  spec.logits_transform_body =
      "return 1.f / (1.f + std::exp(-(logit * p.sm_scale * scale + bias)));";
  spec.logits_mask_body = "return fi::DefaultMask(p, ctx);";
  return spec;
}

TEST(Codegen, SourceStableAndSensitive) {
  // The generated source keys the JIT caches: equal specs must render equal
  // sources, and every spec change must show in the source.
  const auto a = SigmoidSpec();
  auto b = a;
  EXPECT_EQ(GenerateSource(a), GenerateSource(b));
  b.logits_transform_body += " // changed";
  EXPECT_NE(GenerateSource(a), GenerateSource(b));
  b = a;
  b.kv_dtype = DType::kF16;
  EXPECT_NE(GenerateSource(a), GenerateSource(b));
  b = a;
  b.extra_params.push_back({"gamma", 2.0f});
  EXPECT_NE(GenerateSource(a), GenerateSource(b));
  b = a;
  b.has_qk_transform = true;
  EXPECT_NE(GenerateSource(a), GenerateSource(b));
}

TEST(Codegen, EmitsExpectedStructure) {
  const auto src = GenerateSource(SigmoidSpec());
  EXPECT_NE(src.find("struct FlashSigmoid"), std::string::npos);
  EXPECT_NE(src.find("kUseSoftmax = false"), std::string::npos);
  EXPECT_NE(src.find("const float scale"), std::string::npos);
  EXPECT_NE(src.find("const float bias"), std::string::npos);
  EXPECT_NE(src.find("extern \"C\" void fi_variant_run"), std::string::npos);
  EXPECT_NE(src.find("RunWorkItem<float, FlashSigmoid>"), std::string::npos);
}

TEST(Codegen, DtypeSelectsKvType) {
  auto spec = SigmoidSpec();
  spec.kv_dtype = DType::kFP8_E4M3;
  const auto src = GenerateSource(spec);
  EXPECT_NE(src.find("fp8_e4m3_t, FlashSigmoid"), std::string::npos);
}

class JitCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompilerAvailable()) GTEST_SKIP() << "no host compiler";
  }
};

TEST_F(JitCompileTest, CompiledSigmoidMatchesBuiltin) {
  auto kernel = CompileVariant(SigmoidSpec());
  ASSERT_NE(kernel->fn(), nullptr);
  EXPECT_FALSE(kernel->use_softmax());

  ProblemSpec spec;
  spec.qo_lens = {3, 1};
  spec.kv_lens = {21, 9};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  // Bind the JIT extras to match the builtin's sigmoid params.
  const float extras[2] = {1.5f, -0.5f};
  p.variant.extra = extras;
  p.variant.num_extra = 2;
  p.variant.sigmoid_scale = 1.5f;
  p.variant.sigmoid_bias = -0.5f;

  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, kernel->fn());
  const auto jit_out = prob.o.data;

  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kSigmoid, DType::kF32));
  EXPECT_LT(MaxAbsDiff(jit_out, prob.o.data), 1e-5f);
}

TEST_F(JitCompileTest, HostNativeVanillaMatchesBuiltinAtServingGeometry) {
  // Llama-8B head geometry as the attention benchmark runs it: f16 KV,
  // 32 query heads fused onto 8 KV heads, head_dim 128, causal decodes plus
  // a prefill chunk. The kernel is built with the default (host-native) flags.
  AttentionSpecDesc jspec;
  jspec.name = "HostNativeVanilla";
  jspec.kv_dtype = DType::kF16;
  auto kernel = CompileVariant(jspec);

  ProblemSpec spec;
  spec.qo_lens = {1, 1, 16};
  spec.kv_lens = {300, 97, 160};
  spec.num_qo_heads = 32;
  spec.num_kv_heads = 8;
  spec.head_dim = 128;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 64;
  RunSerial(p, cfg, kernel->fn());
  const auto jit_out = prob.o.data;
  const auto jit_lse = prob.lse;

  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF16));
  EXPECT_LT(MaxAbsDiff(jit_out, prob.o.data), 1e-5f);
  EXPECT_LT(MaxAbsDiff(jit_lse, prob.lse), 1e-5f);
}

TEST_F(JitCompileTest, HostNativeKernelMatchesReferenceOnEveryBlockRemainder) {
  // Register blocks follow the vector ISA of the build, so the host-native
  // kernel blocks differently from the library's built-ins: run the
  // remainder sweeps of microkernel_test through it too.
  AttentionSpecDesc jspec;
  jspec.name = "HostNativeSweepF32";
  jspec.kv_dtype = DType::kF32;
  const auto k32 = CompileVariant(jspec);
  jspec.name = "HostNativeSweepF16";
  jspec.kv_dtype = DType::kF16;
  const auto k16 = CompileVariant(jspec);
  std::vector<test::TileCase> cases;
  for (int64_t rows = 1; rows <= 9; ++rows) {
    cases.push_back({.qo_len = rows, .kv_len = rows + 37, .tile_kv = 16});
  }
  for (int tile_kv : {1, 3, 5, 7, 13}) {
    cases.push_back({.qo_len = 3, .kv_len = 45, .tile_kv = tile_kv});
  }
  for (int d : {64, 128, 256, 72, 80}) {
    cases.push_back(
        {.qo_len = 5, .kv_len = 70, .head_dim = d, .tile_kv = 16, .dtype = DType::kF16});
  }
  cases.push_back({.qo_len = 6, .kv_len = 31, .tile_kv = 8, .window_left = 2});
  cases.push_back(
      {.qo_len = 3, .kv_len = 50, .num_qo_heads = 8, .num_kv_heads = 2, .dtype = DType::kF16});
  for (const auto& c : cases) {
    SCOPED_TRACE(c.Describe());
    const auto err = test::TileCaseError(c, (c.dtype == DType::kF16 ? k16 : k32)->fn());
    EXPECT_LT(err.o, 2e-3f);
    EXPECT_LT(err.lse, 2e-3f);
  }
}

TEST_F(JitCompileTest, CustomMaskVariant) {
  // A "every other token" custom mask — something no builtin provides.
  AttentionSpecDesc spec;
  spec.name = "StridedMask";
  spec.kv_dtype = DType::kF32;
  spec.logits_mask_body = "return (ctx.kv_pos % 2 == 0) && fi::DefaultMask(p, ctx);";
  auto kernel = CompileVariant(spec);

  ProblemSpec pspec;
  pspec.qo_lens = {1};
  pspec.kv_lens = {16};
  pspec.num_qo_heads = 1;
  pspec.num_kv_heads = 1;
  pspec.tile_q = 1;
  auto prob = MakeProblem(pspec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  RunSerial(p, cfg, kernel->fn());
  const auto jit_out = prob.o.data;

  // Reference: interpreted hooks with the same mask.
  InterpretedHooks hooks;
  hooks.logits_mask = [](const VariantParams& vp, const LogitsCtx& ctx) {
    return (ctx.kv_pos % 2 == 0) && DefaultMask(vp, ctx);
  };
  SetInterpretedHooks(hooks);
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  SetInterpretedHooks({});
  EXPECT_LT(MaxAbsDiff(jit_out, prob.o.data), 1e-5f);
}

TEST_F(JitCompileTest, CacheHitsInMemoryAndOnDisk) {
  ResetJitCacheStats();
  AttentionSpecDesc spec;
  spec.name = "CacheProbe";
  spec.kv_dtype = DType::kF32;
  spec.extra_params = {{"probe", 3.25f}};  // Unique-ish spec.
  spec.logits_transform_body = "return logit * p.sm_scale * probe;";
  auto k1 = CompileVariant(spec);
  auto k2 = CompileVariant(spec);
  EXPECT_EQ(k1.get(), k2.get());  // In-process registry hit.
  const auto stats = GetJitCacheStats();
  EXPECT_GE(stats.memory_hits, 1);
  EXPECT_LE(stats.compilations, 1);  // 0 if a previous run left the .so.
}

TEST_F(JitCompileTest, CacheKeyCoversCompilerFlags) {
  // One spec under two flag sets compiles twice, into distinct objects, in a
  // private (cold) cache directory.
  const std::string dir = ::testing::TempDir() + "fi_jit_flags_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  AttentionSpecDesc spec;
  spec.name = "FlagProbe";
  spec.kv_dtype = DType::kF32;
  spec.has_qk_transform = true;
  JitOptions o0;
  o0.cache_dir = dir;
  o0.extra_flags = "-O0";
  JitOptions o1 = o0;
  o1.extra_flags = "-O1";
  ResetJitCacheStats();
  const auto k0 = CompileVariant(spec, o0);
  const auto k1 = CompileVariant(spec, o1);
  EXPECT_EQ(GetJitCacheStats().compilations, 2);
  EXPECT_NE(k0->so_path(), k1->so_path());
  EXPECT_EQ(CompileVariant(spec, o1).get(), k1.get());  // Registry hit under the same flags.
  // The variant flags travel through the loaded object.
  EXPECT_TRUE(k0->has_qk_transform());
  EXPECT_TRUE(k0->use_softmax());
  std::filesystem::remove_all(dir);
}

TEST(CompileKeyTest, CoversTheIncludedHeaderClosure) {
  // A private header tree: top.h includes nested/inner.h; other.h is in the
  // tree but included by nothing.
  namespace fs = std::filesystem;
  const fs::path root = ::testing::TempDir() + "fi_jit_headers_" + std::to_string(::getpid());
  fs::remove_all(root);
  fs::create_directories(root / "nested");
  const auto write = [&](const char* name, const char* text) {
    std::ofstream(root / name) << text;
  };
  write("top.h", "#pragma once\n#include <cmath>\n#  include \"nested/inner.h\"\n");
  write("nested/inner.h", "inline int Inner() { return 1; }\n");
  write("other.h", "inline int Other() { return 1; }\n");
  const JitOptions opts;
  const std::string source = "#include \"top.h\"\nint Entry() { return Inner(); }\n";
  const uint64_t key = CompileKey(source, opts, root.string());
  EXPECT_EQ(CompileKey(source, opts, root.string()), key);
  write("other.h", "inline int Other() { return 2; }\n");
  EXPECT_EQ(CompileKey(source, opts, root.string()), key)
      << "a file outside the closure changed the key";
  write("nested/inner.h", "inline int Inner() { return 2; }\n");
  EXPECT_NE(CompileKey(source, opts, root.string()), key) << "a nested header edit kept the key";
  fs::remove_all(root);
}

TEST(Interpreted, DefaultHooksMatchVanilla) {
  SetInterpretedHooks({});
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {12};
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  const auto interp = prob.o.data;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  EXPECT_LT(MaxAbsDiff(interp, prob.o.data), 1e-6f);
}

TEST(Interpreted, HookedSoftCapMatchesBuiltin) {
  InterpretedHooks hooks;
  hooks.logits_transform = [](const VariantParams& vp, float logit, const LogitsCtx&) {
    const float s = logit * vp.sm_scale;
    return vp.logits_soft_cap * std::tanh(s / vp.logits_soft_cap);
  };
  SetInterpretedHooks(hooks);
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {12};
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  p.variant.logits_soft_cap = 8.0f;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  SetInterpretedHooks({});
  const auto interp = prob.o.data;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kSoftCap, DType::kF32));
  EXPECT_LT(test::MaxAbsDiff(interp, prob.o.data), 1e-6f);
}

TEST(Spec, ValidationRejectsBadIdentifiers) {
  AttentionSpecDesc spec;
  spec.name = "ok_name";
  ValidateSpec(spec);  // Fine.
  EXPECT_DEATH(
      {
        AttentionSpecDesc bad;
        bad.name = "bad name; rm -rf /";
        ValidateSpec(bad);
      },
      "FI_CHECK");
}

}  // namespace
}  // namespace flashinfer::jit

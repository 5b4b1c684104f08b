// Tests for amcc, the AMC (mini-C) compiler: each test compiles a program,
// links it, loads it into a simulated host, executes it in the interpreter,
// and checks the functional result — an end-to-end differential test of the
// whole toolchain the paper's build system corresponds to.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amcc/compiler.hpp"
#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "jamvm/assembler.hpp"
#include "jamvm/disassembler.hpp"
#include "jamvm/interpreter.hpp"
#include "jelf/linker.hpp"
#include "jelf/loader.hpp"
#include "listing_util.hpp"
#include "mem/host_memory.hpp"

namespace twochains::amcc {
namespace {

class AmccTest : public ::testing::Test {
 protected:
  AmccTest() : mem_(0, MiB(32)), caches_(CacheConfig()) {
    EXPECT_TRUE(vm::RegisterStandardNatives(natives_, {&printed_}).ok());
    for (const char* name :
         {"tc_memcpy", "tc_memset", "tc_print_str", "tc_print_u64",
          "tc_hash64"}) {
      auto idx = natives_.IndexOf(name);
      EXPECT_TRUE(idx.ok());
      EXPECT_TRUE(ns_.Define(name, vm::MakeNativeHandle(*idx)).ok());
    }
  }

  static cache::HierarchyConfig CacheConfig() {
    cache::HierarchyConfig cfg;
    cfg.l1 = {"L1", KiB(16), 4, 2};
    cfg.l2 = {"L2", KiB(64), 8, 12};
    cfg.l3 = {"L3", KiB(128), 16, 30};
    cfg.llc = {"LLC", KiB(256), 16, 55};
    return cfg;
  }

  /// Compile + link + load. Returns the loaded library.
  StatusOr<jelf::LoadedLibrary> Build(const std::string& source,
                                      const std::string& name = "test.amc") {
    TC_ASSIGN_OR_RETURN(const vm::ObjectCode object, Compile(source, name));
    jelf::LinkOptions link_opts;
    link_opts.image_name = name;
    TC_ASSIGN_OR_RETURN(
        const jelf::LinkedImage image,
        jelf::Link(std::vector<vm::ObjectCode>{object}, link_opts));
    jelf::LoadOptions load_opts;
    // Tests build many units exporting the same "f" into one namespace.
    load_opts.allow_export_override = true;
    return jelf::LoadLibrary(mem_, image, ns_, load_opts);
  }

  /// Runs an exported function; EXPECTs success.
  std::uint64_t Call(const jelf::LoadedLibrary& lib, const std::string& fn,
                     std::vector<std::uint64_t> args = {}) {
    auto stack = mem_.Allocate(KiB(64), 16, mem::Perm::kRW, "stack");
    EXPECT_TRUE(stack.ok());
    vm::Interpreter interp(mem_, caches_, 0, &natives_);
    EXPECT_TRUE(lib.exports.contains(fn)) << "no export " << fn;
    const auto r = interp.Execute(lib.exports.at(fn), args, *stack + KiB(64));
    EXPECT_TRUE(r.status.ok()) << r.status;
    return r.return_value;
  }

  /// One-shot: build + call.
  std::uint64_t Run(const std::string& source, const std::string& fn,
                    std::vector<std::uint64_t> args = {}) {
    auto lib = Build(source);
    EXPECT_TRUE(lib.ok()) << lib.status();
    if (!lib.ok()) return ~0ull;
    return Call(*lib, fn, std::move(args));
  }

  mem::HostMemory mem_;
  cache::CacheHierarchy caches_;
  jelf::HostNamespace ns_;
  vm::NativeTable natives_;
  std::string printed_;
};

// ----------------------------------------------------------- basics

TEST_F(AmccTest, ReturnLiteral) {
  EXPECT_EQ(Run("long f() { return 42; }", "f"), 42u);
}

TEST_F(AmccTest, ArithmeticPrecedence) {
  EXPECT_EQ(Run("long f() { return 2 + 3 * 4; }", "f"), 14u);
  EXPECT_EQ(Run("long f() { return (2 + 3) * 4; }", "f"), 20u);
  EXPECT_EQ(Run("long f() { return 20 / 4 - 1; }", "f"), 4u);
  EXPECT_EQ(Run("long f() { return 17 % 5; }", "f"), 2u);
}

TEST_F(AmccTest, UnaryOperators) {
  EXPECT_EQ(static_cast<std::int64_t>(Run("long f() { return -7; }", "f")), -7);
  EXPECT_EQ(Run("long f() { return ~0 & 0xFF; }", "f"), 0xFFu);
  EXPECT_EQ(Run("long f() { return !0; }", "f"), 1u);
  EXPECT_EQ(Run("long f() { return !5; }", "f"), 0u);
}

TEST_F(AmccTest, ParametersAndCalls) {
  EXPECT_EQ(Run(R"(
    long add(long a, long b) { return a + b; }
    long f(long x) { return add(x, add(1, 2)); }
  )", "f", {10}), 13u);
}

TEST_F(AmccTest, EightParameters) {
  EXPECT_EQ(Run(R"(
    long sum8(long a, long b, long c, long d,
              long e, long f, long g, long h) {
      return a + b + c + d + e + f + g + h;
    }
    long f() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }
  )", "f"), 36u);
}

TEST_F(AmccTest, Recursion) {
  EXPECT_EQ(Run(R"(
    long fib(long n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
  )", "fib", {15}), 610u);
}

TEST_F(AmccTest, Comparisons) {
  const char* src = "long f(long a, long b) { return (a < b) * 8 + (a <= b) * 4 + (a > b) * 2 + (a >= b); }";
  EXPECT_EQ(Run(src, "f", {1, 2}), 12u);                 // < and <=
  EXPECT_EQ(Run(src, "f", {2, 2}), 5u);                  // <= and >=
  EXPECT_EQ(Run(src, "f", {3, 2}), 3u);                  // > and >=
}

TEST_F(AmccTest, SignedVsUnsignedComparison) {
  EXPECT_EQ(Run("long f() { long a = -1; long b = 1; return a < b; }", "f"),
            1u);
  EXPECT_EQ(Run(R"(
    long f() {
      unsigned long a = -1;   /* 0xFFFF..F */
      unsigned long b = 1;
      return a < b;
    }
  )", "f"), 0u);
}

TEST_F(AmccTest, ControlFlow) {
  EXPECT_EQ(Run(R"(
    long f(long n) {
      long total = 0;
      for (long i = 1; i <= n; ++i) {
        if (i % 2 == 0) continue;
        if (i > 20) break;
        total += i;
      }
      return total;
    }
  )", "f", {100}), 100u);  // 1+3+5+...+19
}

TEST_F(AmccTest, WhileLoop) {
  EXPECT_EQ(Run(R"(
    long f(long n) {
      long r = 1;
      while (n > 1) { r = r * n; n = n - 1; }
      return r;
    }
  )", "f", {6}), 720u);
}

TEST_F(AmccTest, NestedLoopsWithBreak) {
  EXPECT_EQ(Run(R"(
    long f() {
      long count = 0;
      for (long i = 0; i < 10; ++i) {
        for (long j = 0; j < 10; ++j) {
          if (j == 3) break;
          ++count;
        }
      }
      return count;
    }
  )", "f"), 30u);
}

TEST_F(AmccTest, CompoundAssignmentOperators) {
  EXPECT_EQ(Run(R"(
    long f() {
      long x = 10;
      x += 5; x -= 3; x *= 4; x /= 2; x %= 13;
      x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 1;
      return x;
    }
  )", "f"), ((((((10 + 5 - 3) * 4 / 2 % 13) << 2) >> 1) | 8) & 14) ^ 1u);
}

TEST_F(AmccTest, IncrementDecrement) {
  EXPECT_EQ(Run(R"(
    long f() {
      long x = 5;
      long a = x++;   /* a=5 x=6 */
      long b = ++x;   /* b=7 x=7 */
      long c = x--;   /* c=7 x=6 */
      long d = --x;   /* d=5 x=5 */
      return a * 1000 + b * 100 + c * 10 + d;
    }
  )", "f"), 5775u);
}

TEST_F(AmccTest, ShortCircuitHasNoSideEffectWhenSkipped) {
  EXPECT_EQ(Run(R"(
    long g_calls = 0;
    long bump() { g_calls += 1; return 1; }
    long f() {
      long r1 = 0 && bump();   /* bump not called */
      long r2 = 1 || bump();   /* bump not called */
      long r3 = 1 && bump();   /* called */
      return g_calls * 100 + r1 * 10 + r2 + r3;
    }
  )", "f"), 102u);
}

// ----------------------------------------------------------- pointers

TEST_F(AmccTest, PointerDerefAndAddressOf) {
  EXPECT_EQ(Run(R"(
    long f() {
      long x = 11;
      long* p = &x;
      *p = *p + 31;
      return x;
    }
  )", "f"), 42u);
}

TEST_F(AmccTest, PointerArithmeticScales) {
  EXPECT_EQ(Run(R"(
    long f() {
      long buf[4];
      long* p = buf;
      *p = 1;
      *(p + 1) = 2;
      *(p + 3) = 4;
      return buf[0] + buf[1] + buf[3];
    }
  )", "f"), 7u);
}

TEST_F(AmccTest, ArrayIndexingLocal) {
  EXPECT_EQ(Run(R"(
    long f(long n) {
      long squares[16];
      for (long i = 0; i < n; ++i) squares[i] = i * i;
      long total = 0;
      for (long i = 0; i < n; ++i) total += squares[i];
      return total;
    }
  )", "f", {5}), 30u);  // 0+1+4+9+16
}

TEST_F(AmccTest, PointerDifference) {
  EXPECT_EQ(Run(R"(
    long f() {
      long buf[8];
      long* a = &buf[1];
      long* b = &buf[6];
      return b - a;
    }
  )", "f"), 5u);
}

TEST_F(AmccTest, CharPointerWalk) {
  EXPECT_EQ(Run(R"(
    const char* msg = "abc";
    long f() {
      const char* p = msg;
      long total = 0;
      while (*p) { total += *p; ++p; }
      return total;
    }
  )", "f"), static_cast<std::uint64_t>('a' + 'b' + 'c'));
}

TEST_F(AmccTest, DoublePointer) {
  EXPECT_EQ(Run(R"(
    long f() {
      long x = 9;
      long* p = &x;
      long** pp = &p;
      **pp = 21;
      return x;
    }
  )", "f"), 21u);
}

// ----------------------------------------------------------- globals

TEST_F(AmccTest, GlobalScalarReadWrite) {
  EXPECT_EQ(Run(R"(
    long counter = 100;
    long f() { counter += 1; return counter; }
  )", "f"), 101u);
}

TEST_F(AmccTest, GlobalArrayWithInitializer) {
  EXPECT_EQ(Run(R"(
    long table[4] = {10, 20, 30};
    long f() { return table[0] + table[1] + table[2] + table[3]; }
  )", "f"), 60u);  // last element zero-filled
}

TEST_F(AmccTest, ConstGlobalGoesToRodata) {
  auto compiled = Compile("const long magic = 77; long f() { return magic; }",
                          "ro.amc");
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_FALSE(compiled->rodata.empty());
  EXPECT_TRUE(compiled->data.empty());
  EXPECT_EQ(Run("const long magic = 77; long f() { return magic; }", "f"),
            77u);
}

TEST_F(AmccTest, StaticGlobalNotExported) {
  auto compiled =
      Compile("static long hidden = 1; long f() { return hidden; }", "s.amc");
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const auto* sym = compiled->FindSymbol("hidden");
  ASSERT_NE(sym, nullptr);
  EXPECT_FALSE(sym->global);
}

// ------------------------------------------------------- types / widths

TEST_F(AmccTest, NarrowTypesStoreAndSignExtend) {
  EXPECT_EQ(Run(R"(
    long f() {
      char c = 200;        /* truncates to -56 as signed char */
      return c;
    }
  )", "f"), static_cast<std::uint64_t>(static_cast<std::int64_t>(
                static_cast<std::int8_t>(200))));
  EXPECT_EQ(Run(R"(
    long f() {
      unsigned char c = 200;
      return c;
    }
  )", "f"), 200u);
}

TEST_F(AmccTest, IntTruncationThroughCast) {
  EXPECT_EQ(Run("long f() { return (int)0x1FFFFFFFF; }", "f"),
            static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(0x1FFFFFFFFull))));
  EXPECT_EQ(Run("long f() { return (unsigned int)0x1FFFFFFFF; }", "f"),
            0xFFFFFFFFull);
}

TEST_F(AmccTest, SizeofTypesAndExprs) {
  EXPECT_EQ(Run("long f() { return sizeof(char) + sizeof(short) + "
                "sizeof(int) + sizeof(long) + sizeof(long*); }", "f"),
            1u + 2 + 4 + 8 + 8);
  EXPECT_EQ(Run("long f() { int x = 0; return sizeof(x); }", "f"), 4u);
}

TEST_F(AmccTest, ShortArrayElementAccess) {
  EXPECT_EQ(Run(R"(
    long f() {
      short buf[4];
      buf[0] = 1000;
      buf[1] = -1000;
      return buf[0] + buf[1];
    }
  )", "f"), 0u);
}

TEST_F(AmccTest, UnsignedDivision) {
  EXPECT_EQ(Run(R"(
    long f() {
      unsigned long big = -8;   /* 0xFFF...F8 */
      return big / 2 == 0x7FFFFFFFFFFFFFFC;
    }
  )", "f"), 1u);
}

// ----------------------------------------------------- extern / natives

TEST_F(AmccTest, ExternNativeCallThroughGot) {
  EXPECT_EQ(Run(R"(
    extern unsigned long tc_hash64(unsigned long x);
    long f(long x) { return tc_hash64(x) != x; }
  )", "f", {5}), 1u);
}

TEST_F(AmccTest, PrintNativesCollectOutput) {
  Run(R"(
    extern long tc_print_str(const char* s);
    extern long tc_print_u64(unsigned long v);
    long f() {
      tc_print_str("count=");
      tc_print_u64(42);
      return 0;
    }
  )", "f");
  EXPECT_EQ(printed_, "count=42");
}

TEST_F(AmccTest, CrossLibraryCallThroughGot) {
  auto provider = Build(R"(
    long twice(long x) { return x * 2; }
  )", "provider.amc");
  ASSERT_TRUE(provider.ok()) << provider.status();
  auto consumer = Build(R"(
    extern long twice(long x);
    long f(long x) { return twice(x) + 1; }
  )", "consumer.amc");
  ASSERT_TRUE(consumer.ok()) << consumer.status();
  EXPECT_EQ(Call(*consumer, "f", {20}), 41u);
}

TEST_F(AmccTest, MemcpyNativeMovesBytes) {
  EXPECT_EQ(Run(R"(
    extern void* tc_memcpy(void* dst, const void* src, unsigned long n);
    long f() {
      long src[4];
      long dst[4];
      for (long i = 0; i < 4; ++i) { src[i] = i + 1; dst[i] = 0; }
      tc_memcpy(dst, src, 32);
      return dst[0] + dst[1] + dst[2] + dst[3];
    }
  )", "f"), 10u);
}

// -------------------------------------------------------------- errors

TEST_F(AmccTest, UndeclaredIdentifierRejected) {
  EXPECT_FALSE(Compile("long f() { return nope; }", "e.amc").ok());
}

TEST_F(AmccTest, WrongArgumentCountRejected) {
  EXPECT_FALSE(Compile(R"(
    long g(long a, long b) { return a + b; }
    long f() { return g(1); }
  )", "e.amc").ok());
}

TEST_F(AmccTest, CallingVariableRejected) {
  EXPECT_FALSE(Compile("long f() { long x = 1; return x(); }", "e.amc").ok());
}

TEST_F(AmccTest, BreakOutsideLoopRejected) {
  EXPECT_FALSE(Compile("long f() { break; return 0; }", "e.amc").ok());
}

TEST_F(AmccTest, AssignToRvalueRejected) {
  EXPECT_FALSE(Compile("long f() { 3 = 4; return 0; }", "e.amc").ok());
}

TEST_F(AmccTest, RedefinitionRejected) {
  EXPECT_FALSE(Compile("long f() { return 0; } long f() { return 1; }",
                       "e.amc").ok());
  EXPECT_FALSE(Compile("long f() { long x = 1; long x = 2; return x; }",
                       "e.amc").ok());
}

TEST_F(AmccTest, LexerErrors) {
  EXPECT_FALSE(Compile("long f() { return `; }", "e.amc").ok());
  EXPECT_FALSE(Compile("long f() { return \"unterminated; }", "e.amc").ok());
  EXPECT_FALSE(Compile("/* open comment", "e.amc").ok());
}

TEST_F(AmccTest, ParserErrors) {
  EXPECT_FALSE(Compile("long f( { return 0; }", "e.amc").ok());
  EXPECT_FALSE(Compile("long f() { if return; }", "e.amc").ok());
  EXPECT_FALSE(Compile("long 5x = 3;", "e.amc").ok());
}

// ----------------------------------------- parameterized differential

struct ExprCase {
  const char* expr;
  std::int64_t expected;
};

class ExprDifferentialTest : public AmccTest,
                             public ::testing::WithParamInterface<ExprCase> {};

TEST_P(ExprDifferentialTest, MatchesHostEvaluation) {
  const auto& param = GetParam();
  const std::string src =
      std::string("long f() { return ") + param.expr + "; }";
  // Rebuild fixture state per case (fresh namespace) by using unique names.
  static int counter = 0;
  auto lib = Build(src, "expr" + std::to_string(counter++) + ".amc");
  ASSERT_TRUE(lib.ok()) << lib.status() << " for " << param.expr;
  EXPECT_EQ(static_cast<std::int64_t>(Call(*lib, "f")), param.expected)
      << param.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, ExprDifferentialTest,
    ::testing::Values(
        ExprCase{"1 + 2 * 3 - 4 / 2", 1 + 2 * 3 - 4 / 2},
        ExprCase{"(7 ^ 3) | (12 & 10)", (7 ^ 3) | (12 & 10)},
        ExprCase{"1 << 10 >> 3", 1 << 10 >> 3},
        ExprCase{"-13 / 4", -13 / 4},
        ExprCase{"-13 % 4", -13 % 4},
        ExprCase{"5 > 3 && 2 < 1 || 7 == 7", (5 > 3 && 2 < 1) || 7 == 7},
        ExprCase{"~(1 << 4) & 0xFF", ~(1 << 4) & 0xFF},
        ExprCase{"100 % 7 * 3 + 2", 100 % 7 * 3 + 2},
        ExprCase{"(1 + 2) * (3 + 4) % 5", (1 + 2) * (3 + 4) % 5},
        ExprCase{"0x10 + 010", 0x10 + 10},  // AMC: no octal, 010 is decimal 10
        ExprCase{"'a' + 1", 'a' + 1},
        ExprCase{"!(3 < 2) + (4 != 4)", !(3 < 2) + (4 != 4)}));

// ---------------------------------------- seeded toolchain properties

/// A randomly generated expression over parameters a/b together with its
/// host-evaluated value (two's-complement 64-bit, like AMC `long`).
struct GeneratedExpr {
  std::string text;
  std::uint64_t value = 0;
};

GeneratedExpr GenExpr(Xoshiro256& rng, int depth, std::uint64_t a,
                      std::uint64_t b) {
  if (depth == 0 || rng.NextBelow(4) == 0) {
    switch (rng.NextBelow(3)) {
      case 0: return {"a", a};
      case 1: return {"b", b};
      default: {
        const std::uint64_t lit = rng.NextBelow(256);
        return {std::to_string(lit), lit};
      }
    }
  }
  const GeneratedExpr lhs = GenExpr(rng, depth - 1, a, b);
  const GeneratedExpr rhs = GenExpr(rng, depth - 1, a, b);
  // Wrapping ops only, so host-side uint64 arithmetic is the exact
  // reference for AMC's two's-complement `long`.
  const char* ops[] = {"+", "-", "*", "&", "|", "^"};
  const std::uint64_t pick = rng.NextBelow(6);
  std::uint64_t value = 0;
  switch (pick) {
    case 0: value = lhs.value + rhs.value; break;
    case 1: value = lhs.value - rhs.value; break;
    case 2: value = lhs.value * rhs.value; break;
    case 3: value = lhs.value & rhs.value; break;
    case 4: value = lhs.value | rhs.value; break;
    default: value = lhs.value ^ rhs.value; break;
  }
  return {"(" + lhs.text + " " + ops[pick] + " " + rhs.text + ")", value};
}

TEST_F(AmccTest, SeededExpressionsMatchHostEvaluation) {
  Xoshiro256 rng(0xA3CC5EED);
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t a = rng.Next();
    const std::uint64_t b = rng.Next();
    const GeneratedExpr expr = GenExpr(rng, 4, a, b);
    const std::string src =
        "long f(long a, long b) { return " + expr.text + "; }";
    auto lib = Build(src, "gen" + std::to_string(round) + ".amc");
    ASSERT_TRUE(lib.ok()) << lib.status() << "\nsource: " << src;
    EXPECT_EQ(Call(*lib, "f", {a, b}), expr.value) << src;
  }
}

TEST_F(AmccTest, SeededSourcesRoundTripThroughAssemblerFixpoint) {
  // amcc -> .text bytes -> disassemble -> reassemble must reproduce the
  // exact bytes, and a second disassembly the exact listing (fixpoint):
  // the toolchain's encode/decode/print/parse paths agree on every
  // instruction the compiler can emit.
  Xoshiro256 rng(0xF1C5);
  for (int round = 0; round < 12; ++round) {
    const GeneratedExpr expr = GenExpr(rng, 3, 1, 2);
    const std::string src = "long helper(long a, long b) { return " +
                            expr.text +
                            "; }\n"
                            "long f(long a, long b) {\n"
                            "  long total = 0;\n"
                            "  for (long i = 0; i < a; ++i) {\n"
                            "    if (i % 2) total += helper(i, b);\n"
                            "    else total -= b;\n"
                            "  }\n"
                            "  return total;\n"
                            "}";
    auto compiled = Compile(src, "fix" + std::to_string(round) + ".amc");
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const auto& text = compiled->text;
    ASSERT_FALSE(text.empty());

    auto listing = vm::Disassemble(text);
    ASSERT_TRUE(listing.ok()) << listing.status();
    auto reassembled =
        vm::Assemble(vm::StripListingOffsets(*listing), "fix.jasm");
    ASSERT_TRUE(reassembled.ok())
        << reassembled.status() << "\nlisting:\n" << *listing;
    EXPECT_EQ(reassembled->text, text) << "round " << round;

    auto listing_again = vm::Disassemble(reassembled->text);
    ASSERT_TRUE(listing_again.ok());
    EXPECT_EQ(*listing_again, *listing) << "round " << round;
  }
}

}  // namespace
}  // namespace twochains::amcc

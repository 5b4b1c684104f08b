// Tests for the package builder: canonical naming, dual-variant jam builds
// (local + GOT-rewritten injected), ried libraries, header generation, and
// the golden layout of zero-filled globals.
#include <gtest/gtest.h>

#include <cstdint>

#include "amcc/compiler.hpp"
#include "jelf/got_rewriter.hpp"
#include "pkg/package.hpp"

namespace twochains::pkg {
namespace {

constexpr const char* kJamAppend = R"(
extern long store_next(long v);
long jam_append(long* args, char* usr, long usr_bytes) {
  return store_next(args[0]);
}
)";

constexpr const char* kRiedArray = R"(
long values[64];
long cursor = 0;
long ried_array(void) { return 0; }
long ried_array_init(void) { cursor = 0; return 0; }
long store_next(long v) {
  values[cursor % 64] = v;
  cursor = cursor + 1;
  return cursor;
}
)";

TEST(PackageBuilderTest, CanonicalNamingEnforced) {
  PackageBuilder builder;
  EXPECT_TRUE(builder.AddSourceFile("jam_append.amc", kJamAppend).ok());
  EXPECT_TRUE(builder.AddSourceFile("ried_array.rdc", kRiedArray).ok());
  EXPECT_EQ(builder.AddSourceFile("append.amc", "").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddSourceFile("jam_x.rdc", "").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddSourceFile("jam_append.amc", kJamAppend).code(),
            StatusCode::kAlreadyExists);
}

TEST(PackageBuilderTest, EmptyBuildRejected) {
  PackageBuilder builder;
  EXPECT_EQ(builder.Build("p").status().code(),
            StatusCode::kFailedPrecondition);
}

class BuiltPackageTest : public ::testing::Test {
 protected:
  BuiltPackageTest() {
    PackageBuilder builder;
    EXPECT_TRUE(builder.AddSourceFile("ried_array.rdc", kRiedArray).ok());
    EXPECT_TRUE(builder.AddSourceFile("jam_append.amc", kJamAppend).ok());
    auto pkg = builder.Build("demo");
    EXPECT_TRUE(pkg.ok()) << pkg.status();
    pkg_ = std::move(pkg).value();
  }
  Package pkg_;
};

TEST_F(BuiltPackageTest, ElementsAndIds) {
  ASSERT_EQ(pkg_.elements.size(), 2u);
  const auto* jam = pkg_.Find(ElementKind::kJam, "append");
  const auto* ried = pkg_.Find(ElementKind::kRied, "array");
  ASSERT_NE(jam, nullptr);
  ASSERT_NE(ried, nullptr);
  EXPECT_EQ(jam->entry_symbol, "jam_append");
  EXPECT_EQ(ried->entry_symbol, "ried_array");
  EXPECT_NE(jam->element_id, ried->element_id);
  EXPECT_EQ(pkg_.Find(ElementKind::kJam, "array"), nullptr);
}

TEST_F(BuiltPackageTest, InjectedImageIsRewrittenAndCompact) {
  const auto* jam = pkg_.Find(ElementKind::kJam, "append");
  ASSERT_NE(jam, nullptr);
  // The injected image must contain no ldg.fix (fully rewritten) and no
  // page alignment bloat.
  EXPECT_TRUE(jelf::IsFullyRewritten(jam->injected_image));
  EXPECT_FALSE(jam->injected_image.page_aligned);
  EXPECT_TRUE(jam->injected_image.exports.contains("jam_append"));
  // The jam references the ried's store_next through the GOT.
  ASSERT_EQ(jam->injected_image.got_symbols.size(), 1u);
  EXPECT_EQ(jam->injected_image.got_symbols[0], "store_next");
}

TEST_F(BuiltPackageTest, LocalLibraryContainsUnmodifiedJams) {
  EXPECT_FALSE(pkg_.local_library.text.empty());
  EXPECT_TRUE(pkg_.local_library.exports.contains("jam_append"));
  // Unmodified: still uses fixed GOT addressing.
  EXPECT_FALSE(jelf::IsFullyRewritten(pkg_.local_library));
  EXPECT_TRUE(pkg_.local_library.page_aligned);
}

TEST_F(BuiltPackageTest, RiedImagePageAligned) {
  const auto* ried = pkg_.Find(ElementKind::kRied, "array");
  ASSERT_NE(ried, nullptr);
  EXPECT_TRUE(ried->ried_image.page_aligned);
  EXPECT_TRUE(ried->ried_image.exports.contains("store_next"));
  EXPECT_TRUE(ried->ried_image.exports.contains("ried_array_init"));
}

TEST_F(BuiltPackageTest, GeneratedHeaderListsElements) {
  const std::string header = pkg_.GeneratedHeader();
  EXPECT_NE(header.find("TC_PACKAGE_demo"), std::string::npos);
  EXPECT_NE(header.find("TC_ELEM_demo_append"), std::string::npos);
  EXPECT_NE(header.find("TC_ELEM_demo_array"), std::string::npos);
  EXPECT_NE(header.find("jam_append"), std::string::npos);
}

// Zero-initialised globals assemble to `.space` directives along all three
// codegen paths: a padded string, a partly initialised list, and a plain
// array (16 MiB here, the size of ried_kvstore's heap).
constexpr const char* kRiedZeroFill = R"(
char tag[13] = "zero";
long primes[40] = {2, 3, 5, 7};
char heap[16777216];
long ried_fill(void) { return 0; }
long ried_fill_init(void) { return 0; }
long fill_probe(long i) { return heap[i] + primes[i % 40] + tag[i % 13]; }
)";

std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

TEST(PackageGoldenTest, ZeroFilledGlobalsMatchGoldenBytes) {
  PackageBuilder builder;
  ASSERT_TRUE(builder.AddSourceFile("ried_fill.rdc", kRiedZeroFill).ok());
  auto pkg = builder.Build("fill");
  ASSERT_TRUE(pkg.ok()) << pkg.status();
  ASSERT_EQ(pkg->elements.size(), 1u);
  const jelf::LinkedImage& ried = pkg->elements[0].ried_image;
  // Golden copy of the ried image's stored bytes (text, rodata, data): their
  // size and FNV-1a digest. The zero tail is not stored, and total_size
  // rounds the trailing heap up to a page, so the layout is pinned directly
  // too: the assembled .data extent (written bytes plus the trailing zero
  // count) fails on a wrong .space count anywhere, heap's included.
  std::vector<std::uint8_t> stored = ried.text;
  stored.insert(stored.end(), ried.rodata.begin(), ried.rodata.end());
  stored.insert(stored.end(), ried.data.begin(), ried.data.end());
  EXPECT_EQ(stored.size(), 641u);
  EXPECT_EQ(ried.data.size(), 41u);
  EXPECT_EQ(Fnv1a(stored), 0x82392fc65a2fd120ull);
  EXPECT_EQ(ried.total_size, 16785408u);
  EXPECT_EQ(ried.data_offset, 4096u);
  EXPECT_EQ(ried.exports.at("tag").offset, 4096u);
  EXPECT_EQ(ried.exports.at("primes").offset, 4112u);
  EXPECT_EQ(ried.exports.at("heap").offset, 4432u);
  const auto compiled = amcc::Compile(kRiedZeroFill, "ried_fill.rdc");
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->DataExtent(), 16777552u);
}

TEST(PackageBuilderErrorsTest, MissingEntrySymbol) {
  PackageBuilder builder;
  // File claims to define jam_foo but defines jam_bar.
  ASSERT_TRUE(builder
                  .AddSourceFile("jam_foo.amc",
                                 "long jam_bar(long* a, char* u, long n) "
                                 "{ return 0; }")
                  .ok());
  auto pkg = builder.Build("p");
  ASSERT_FALSE(pkg.ok());
  EXPECT_EQ(pkg.status().code(), StatusCode::kNotFound);
}

TEST(PackageBuilderErrorsTest, JamWithWritableGlobalRejected) {
  PackageBuilder builder;
  // Jams are stateless mobile code: writable globals must be refused.
  ASSERT_TRUE(builder
                  .AddSourceFile("jam_stateful.amc",
                                 "long counter = 0;\n"
                                 "long jam_stateful(long* a, char* u, long n)"
                                 " { counter += 1; return counter; }")
                  .ok());
  auto pkg = builder.Build("p");
  ASSERT_FALSE(pkg.ok());
  EXPECT_EQ(pkg.status().code(), StatusCode::kInvalidArgument);
}

TEST(PackageBuilderErrorsTest, CompileErrorPropagates) {
  PackageBuilder builder;
  ASSERT_TRUE(builder.AddSourceFile("jam_bad.amc", "long jam_bad( {").ok());
  EXPECT_FALSE(builder.Build("p").ok());
}

}  // namespace
}  // namespace twochains::pkg

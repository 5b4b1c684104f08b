// Two-Chains packages (§IV): each package is a named collection of
// elements — jams (mobile active-message functions) and rieds (relocatable
// interface distributions, i.e. shared libraries shipped ahead of time).
//
// Canonical source naming is enforced exactly as in the paper: "the build
// tools expect each element to be defined in one canonically named source
// file, e.g. jam_append.amc or ried_array.rdc". The element's entry symbol
// is the file's base name (a jam file jam_append.amc must define
// `jam_append`); rieds may export anything, and a `<name>_init` export is
// auto-run on load ("loaded and auto-initialized", §IV-A).
//
// From one jam source the builder produces BOTH invocation variants
// (§IV-B):
//   * the *local* image — unmodified code, linked into the package's
//     Local Function library, loaded on the receiver, dispatched by element
//     ID through a function-pointer vector;
//   * the *injected* image — compactly linked (code+rodata blob, no
//     writable data) and GOT-rewritten so the code links through the
//     patched GOT travelling with the message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "jelf/image.hpp"

namespace twochains::pkg {

enum class ElementKind : std::uint8_t { kJam = 0, kRied = 1 };

struct BuiltElement {
  ElementKind kind = ElementKind::kJam;
  std::string name;          ///< element name ("append")
  std::string entry_symbol;  ///< "jam_append" / "ried_array"
  std::uint32_t element_id = 0;  ///< unique within the package

  /// Jams: the injectable, GOT-rewritten image (code+rodata blob + GOT
  /// symbol list). Unused for rieds.
  jelf::LinkedImage injected_image;
  /// Rieds: the page-aligned library image. For jams this is empty — local
  /// invocation uses the package's combined local library instead.
  jelf::LinkedImage ried_image;
};

struct Package {
  std::string name;
  std::vector<BuiltElement> elements;

  /// The Local Function library: every jam of the package linked together,
  /// unmodified; receivers load it once and dispatch by element ID.
  jelf::LinkedImage local_library;

  const BuiltElement* Find(ElementKind kind, const std::string& name) const;

  /// The generated package header (paper: "the build process generates a
  /// package header file"): element IDs and entry symbols as C text.
  std::string GeneratedHeader() const;
};

/// Collects canonical sources and builds a package.
class PackageBuilder {
 public:
  /// @p file_name must be "jam_<name>.amc" or "ried_<name>.rdc".
  Status AddSourceFile(const std::string& file_name, std::string source);

  /// Compiles, links, and rewrites everything. The builder can be reused
  /// after Build (sources are kept).
  StatusOr<Package> Build(const std::string& package_name) const;

 private:
  struct SourceFile {
    ElementKind kind;
    std::string element_name;
    std::string file_name;
    std::string source;
  };
  std::vector<SourceFile> sources_;
};

}  // namespace twochains::pkg

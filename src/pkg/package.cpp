#include "pkg/package.hpp"

#include "amcc/compiler.hpp"
#include "common/byte_io.hpp"
#include "common/strfmt.hpp"
#include "jelf/format.hpp"
#include "jelf/got_rewriter.hpp"
#include "jelf/linker.hpp"

namespace twochains::pkg {

const BuiltElement* Package::Find(ElementKind kind,
                                  const std::string& name) const {
  for (const auto& e : elements) {
    if (e.kind == kind && e.name == name) return &e;
  }
  return nullptr;
}

const BuiltElement* Package::FindById(std::uint32_t element_id) const {
  for (const auto& e : elements) {
    if (e.element_id == element_id) return &e;
  }
  return nullptr;
}

std::string Package::GeneratedHeader() const {
  std::string out = StrFormat("/* package '%s' — generated by the "
                              "Two-Chains build tools; do not edit. */\n",
                              name.c_str());
  out += StrFormat("#define TC_PACKAGE_%s 1\n", name.c_str());
  for (const auto& e : elements) {
    out += StrFormat("#define TC_ELEM_%s_%s %u  /* %s, entry %s */\n",
                     name.c_str(), e.name.c_str(), e.element_id,
                     e.kind == ElementKind::kJam ? "jam" : "ried",
                     e.entry_symbol.c_str());
  }
  return out;
}

Status PackageBuilder::AddSourceFile(const std::string& file_name,
                                     std::string source) {
  SourceFile sf;
  sf.file_name = file_name;
  auto parse_name = [&](std::string_view prefix, std::string_view suffix,
                        ElementKind kind) -> bool {
    if (file_name.size() <= prefix.size() + suffix.size()) return false;
    if (file_name.substr(0, prefix.size()) != prefix) return false;
    if (file_name.substr(file_name.size() - suffix.size()) != suffix) {
      return false;
    }
    sf.kind = kind;
    sf.element_name = file_name.substr(
        prefix.size(), file_name.size() - prefix.size() - suffix.size());
    return true;
  };
  if (!parse_name("jam_", ".amc", ElementKind::kJam) &&
      !parse_name("ried_", ".rdc", ElementKind::kRied)) {
    return InvalidArgument(StrFormat(
        "'%s' is not a canonical element source name "
        "(expected jam_<name>.amc or ried_<name>.rdc)",
        file_name.c_str()));
  }
  for (const auto& existing : sources_) {
    if (existing.kind == sf.kind && existing.element_name == sf.element_name) {
      return AlreadyExists(StrFormat("element '%s'", file_name.c_str()));
    }
  }
  sf.source = std::move(source);
  sources_.push_back(std::move(sf));
  return Status::Ok();
}

StatusOr<Package> PackageBuilder::Build(const std::string& package_name) const {
  if (sources_.empty()) return FailedPrecondition("no sources added");
  Package pkg;
  pkg.name = package_name;

  std::vector<vm::ObjectCode> jam_objects;  // for the combined local library

  std::uint32_t next_id = 0;
  for (const auto& sf : sources_) {
    TC_ASSIGN_OR_RETURN(const amcc::CompileResult compiled,
                        amcc::Compile(sf.source, sf.file_name));
    BuiltElement elem;
    elem.kind = sf.kind;
    elem.name = sf.element_name;
    elem.element_id = next_id++;
    elem.asm_text = compiled.asm_text;
    elem.entry_symbol =
        (sf.kind == ElementKind::kJam ? "jam_" : "ried_") + sf.element_name;

    if (compiled.object.FindSymbol(elem.entry_symbol) == nullptr ||
        !compiled.object.FindSymbol(elem.entry_symbol)->defined) {
      return NotFound(StrFormat(
          "%s: canonical entry symbol '%s' is not defined",
          sf.file_name.c_str(), elem.entry_symbol.c_str()));
    }

    if (sf.kind == ElementKind::kJam) {
      // Injected variant: compact image, no writable data, GOT rewritten.
      jelf::LinkOptions jam_opts;
      jam_opts.image_name = package_name + ".jam." + sf.element_name;
      jam_opts.page_align_sections = false;
      jam_opts.forbid_writable_data = true;
      TC_ASSIGN_OR_RETURN(elem.injected_image,
                          jelf::Link({&compiled.object, 1}, jam_opts));
      TC_ASSIGN_OR_RETURN(const auto stats,
                          jelf::RewriteGotAccesses(elem.injected_image));
      (void)stats;
      jam_objects.push_back(compiled.object);
    } else {
      jelf::LinkOptions ried_opts;
      ried_opts.image_name = package_name + ".ried." + sf.element_name;
      TC_ASSIGN_OR_RETURN(elem.ried_image,
                          jelf::Link({&compiled.object, 1}, ried_opts));
    }
    pkg.elements.push_back(std::move(elem));
  }

  // The Local Function library: all jams, unmodified, one image.
  if (!jam_objects.empty()) {
    jelf::LinkOptions local_opts;
    local_opts.image_name = package_name + ".local";
    TC_ASSIGN_OR_RETURN(pkg.local_library,
                        jelf::Link(jam_objects, local_opts));
  }
  return pkg;
}

// ------------------------------------------------------------ serialization

std::vector<std::uint8_t> SerializePackage(const Package& package) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.U32(0x30504354u);  // "TCP0"
  w.LengthPrefixedString(package.name);
  w.U32(static_cast<std::uint32_t>(package.elements.size()));
  for (const auto& e : package.elements) {
    w.U8(static_cast<std::uint8_t>(e.kind));
    w.LengthPrefixedString(e.name);
    w.LengthPrefixedString(e.entry_symbol);
    w.U32(e.element_id);
    const auto injected = jelf::SerializeImage(e.injected_image);
    w.U64(injected.size());
    w.Bytes(injected);
    const auto ried = jelf::SerializeImage(e.ried_image);
    w.U64(ried.size());
    w.Bytes(ried);
  }
  const auto local = jelf::SerializeImage(package.local_library);
  w.U64(local.size());
  w.Bytes(local);
  return out;
}

StatusOr<Package> ParsePackage(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TC_ASSIGN_OR_RETURN(const auto magic, r.U32());
  if (magic != 0x30504354u) return DataLoss("bad package magic");
  Package pkg;
  TC_ASSIGN_OR_RETURN(pkg.name, r.LengthPrefixedString());
  TC_ASSIGN_OR_RETURN(const auto count, r.U32());
  for (std::uint32_t i = 0; i < count; ++i) {
    BuiltElement e;
    TC_ASSIGN_OR_RETURN(const auto kind, r.U8());
    if (kind > 1) return DataLoss("bad element kind");
    e.kind = static_cast<ElementKind>(kind);
    TC_ASSIGN_OR_RETURN(e.name, r.LengthPrefixedString());
    TC_ASSIGN_OR_RETURN(e.entry_symbol, r.LengthPrefixedString());
    TC_ASSIGN_OR_RETURN(e.element_id, r.U32());
    TC_ASSIGN_OR_RETURN(const auto injected_size, r.U64());
    TC_ASSIGN_OR_RETURN(const auto injected_bytes, r.Bytes(injected_size));
    if (injected_size > 0) {
      TC_ASSIGN_OR_RETURN(e.injected_image, jelf::ParseImage(injected_bytes));
    }
    TC_ASSIGN_OR_RETURN(const auto ried_size, r.U64());
    TC_ASSIGN_OR_RETURN(const auto ried_bytes, r.Bytes(ried_size));
    if (ried_size > 0) {
      TC_ASSIGN_OR_RETURN(e.ried_image, jelf::ParseImage(ried_bytes));
    }
    pkg.elements.push_back(std::move(e));
  }
  TC_ASSIGN_OR_RETURN(const auto local_size, r.U64());
  TC_ASSIGN_OR_RETURN(const auto local_bytes, r.Bytes(local_size));
  if (local_size > 0) {
    TC_ASSIGN_OR_RETURN(pkg.local_library, jelf::ParseImage(local_bytes));
  }
  return pkg;
}

Status InstallRegistry::Install(const Package& package) {
  if (blobs_.contains(package.name)) {
    return AlreadyExists(StrFormat("package '%s'", package.name.c_str()));
  }
  blobs_.emplace(package.name, SerializePackage(package));
  return Status::Ok();
}

StatusOr<Package> InstallRegistry::Load(const std::string& name) const {
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) {
    return NotFound(StrFormat("package '%s' is not installed", name.c_str()));
  }
  return ParsePackage(it->second);
}

StatusOr<std::vector<std::uint8_t>> InstallRegistry::Blob(
    const std::string& name) const {
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) {
    return NotFound(StrFormat("package '%s' is not installed", name.c_str()));
  }
  return it->second;
}

}  // namespace twochains::pkg

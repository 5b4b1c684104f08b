#include "pkg/package.hpp"

#include "amcc/compiler.hpp"
#include "common/strfmt.hpp"
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
    TC_ASSIGN_OR_RETURN(const vm::ObjectCode object,
                        amcc::Compile(sf.source, sf.file_name));
    BuiltElement elem;
    elem.kind = sf.kind;
    elem.name = sf.element_name;
    elem.element_id = next_id++;
    elem.entry_symbol =
        (sf.kind == ElementKind::kJam ? "jam_" : "ried_") + sf.element_name;

    if (object.FindSymbol(elem.entry_symbol) == nullptr ||
        !object.FindSymbol(elem.entry_symbol)->defined) {
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
                          jelf::Link({&object, 1}, jam_opts));
      TC_ASSIGN_OR_RETURN(const auto stats,
                          jelf::RewriteGotAccesses(elem.injected_image));
      (void)stats;
      jam_objects.push_back(object);
    } else {
      jelf::LinkOptions ried_opts;
      ried_opts.image_name = package_name + ".ried." + sf.element_name;
      TC_ASSIGN_OR_RETURN(elem.ried_image,
                          jelf::Link({&object, 1}, ried_opts));
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

}  // namespace twochains::pkg

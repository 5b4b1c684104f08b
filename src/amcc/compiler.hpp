// amcc driver: AMC source -> assembly -> ObjectCode.
//
// The equivalent of the paper's "build toolchain [that] processes C source
// files" (§I): one call compiles an active-message source unit into a
// relocatable object ready for the package builder, which links it twice —
// once unmodified into the Local Function library, once GOT-rewritten into
// the injectable jam image.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"
#include "jamvm/program.hpp"

namespace twochains::amcc {

/// Compiles one AMC translation unit.
StatusOr<vm::ObjectCode> Compile(std::string_view source,
                                 const std::string& unit_name);

}  // namespace twochains::amcc

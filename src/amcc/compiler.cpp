#include "amcc/compiler.hpp"

#include "amcc/codegen.hpp"
#include "amcc/parser.hpp"
#include "common/strfmt.hpp"
#include "jamvm/assembler.hpp"

namespace twochains::amcc {

std::string Type::ToString() const {
  std::string s;
  switch (base) {
    case BaseType::kVoid: s = "void"; break;
    case BaseType::kI8: s = "char"; break;
    case BaseType::kI16: s = "short"; break;
    case BaseType::kI32: s = "int"; break;
    case BaseType::kI64: s = "long"; break;
    case BaseType::kU8: s = "unsigned char"; break;
    case BaseType::kU16: s = "unsigned short"; break;
    case BaseType::kU32: s = "unsigned int"; break;
    case BaseType::kU64: s = "unsigned long"; break;
  }
  for (unsigned i = 0; i < pointer_depth; ++i) s += "*";
  return s;
}

StatusOr<vm::ObjectCode> Compile(std::string_view source,
                                 const std::string& unit_name) {
  TC_ASSIGN_OR_RETURN(const Unit unit, Parse(source, unit_name));
  TC_ASSIGN_OR_RETURN(const std::string asm_text, GenerateAsm(unit));
  auto object = vm::Assemble(asm_text, unit_name);
  if (!object.ok()) {
    // An assembler rejection of generated code is a compiler bug; surface
    // the assembly to make it debuggable.
    return Internal(StrFormat("generated assembly failed to assemble: %s\n%s",
                              object.status().message().c_str(),
                              asm_text.c_str()));
  }
  return object;
}

}  // namespace twochains::amcc

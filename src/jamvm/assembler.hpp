// Two-pass assembler: jam assembly text -> ObjectCode.
//
// Grammar (one statement per line; ';' or '#' starts a comment):
//
//   .text | .rodata | .data          select current section
//   .global NAME                     export NAME
//   .extern NAME                     declare an external symbol
//   .align N                         pad section to N bytes (pow2)
//   .byte V,... | .half V,... | .word V,... | .quad V|SYM[+OFF],...
//   .asciz "STR"                     NUL-terminated string (escapes \n\t\0\\\")
//   .space N                         N zero bytes (in .data, a run that
//                                    ends the section stays a count:
//                                    ObjectCode::data_zero_tail)
//   LABEL:                           define LABEL at current position
//
// Instructions follow the ISA mnemonics (isa.hpp); operand shapes:
//   alu      op rd, rs1, rs2     |  opi rd, rs1, imm
//   const    movi rd, imm        |  movhi rd, imm
//   load     ld* rd, [rs1+imm]
//   store    st* rs2, [rs1+imm]       (value register first)
//   branch   b* rs1, rs2, target      (label or numeric byte offset)
//   jumps    jal rd, target  |  jalr rd, rs1, imm
//   address  lea rd, symbol|imm
//   got      ldg rd, @symbol          (emits ldg.fix + GOT relocation)
//
// Pseudo-instructions: ret, mov, li (64-bit, always two slots), jmp, call,
// not, neg, seqz, snez.
//
// Branch targets defined in the same object's .text resolve immediately;
// everything else (lea of .rodata symbols, @got refs, .quad symbols)
// produces relocations for the linker.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"
#include "jamvm/program.hpp"

namespace twochains::vm {

/// Assembles @p source (named @p unit_name for diagnostics).
StatusOr<ObjectCode> Assemble(std::string_view source,
                              std::string unit_name = "<asm>");

}  // namespace twochains::vm

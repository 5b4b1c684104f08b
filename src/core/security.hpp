// Security policy: the §V mitigation matrix as configuration.
//
// The paper's default is the fastest, least-hardened configuration: all
// mailbox pages RWX, the sender supplies the patched GOT inside the frame,
// and the receiver trusts the frame after magic/sequence checks. Each knob
// below enables one of the §V mitigations; the abl_security_modes bench
// measures what each costs.
#pragma once

#include <cstdint>

namespace twochains::core {

struct SecurityPolicy {
  /// Run the static verifier over injected code before first execution.
  bool verify_injected_code = false;

  /// "Do not accept GOT pointer indirection in the message from a sender.
  /// Have the receiver insert the GOT pointer on message arrival from a
  /// secure read-only location." The receiver keeps a per-element GOT built
  /// from its own namespace and patches PRE itself; sender GOTP bytes are
  /// ignored.
  bool receiver_installs_got = false;

  /// "Separate the user data payload area from the rest of the message ...
  /// writable data will not reside on executable pages." Full-body frames
  /// pad ARGS/USR to a fresh page. Around every execution, whatever the
  /// frame's shape, the receiver flips the frame's code pages (full-body
  /// only) to RX and its data pages to RW, then restores the mailbox's
  /// resting RWX.
  bool split_code_data_pages = false;

  /// Make the ARGS/USR pages read-only during execution, in every frame
  /// shape (applies with split_code_data_pages).
  bool read_only_args = false;

  /// Enforce the X page bit on instruction fetch (costs a page-permission
  /// check per executed page; off reproduces the paper's RWX mailboxes,
  /// on is required for the split_code_data_pages mode to mean anything).
  bool enforce_exec_permission = false;

  /// Virtines-style control-flow confinement: injected code executes with
  /// the interpreter's exec windows set to the frame's CODE section (or the
  /// cached image, on the by-handle path) plus the receiver's loaded
  /// libraries, so a computed jump (`jalr` through a register) can never
  /// land in ARGS/USR bytes, another mailbox frame, or any other unverified
  /// memory. This is the dynamic half of the jalr story — the static
  /// verifier cannot prove register-based targets (see jamvm/verifier.hpp).
  /// Costs ExecConfig::confine_branch_cycles per control transfer.
  bool confine_control_flow = false;

  /// Re-run the static verifier over the resident cached image on every
  /// by-handle invoke, not only at install time. Paranoid mode: the install
  /// verification already covers the cache (images are receiver-private and
  /// sealed RX under split_code_data_pages), so this knob exists to put a
  /// measured price on "trust nothing resident" — it largely cancels the
  /// cache's link-cycle savings (abl_security_modes).
  bool verify_cached_invokes = false;

  static SecurityPolicy PaperDefault() { return SecurityPolicy{}; }

  static SecurityPolicy Hardened() {
    SecurityPolicy p;
    p.verify_injected_code = true;
    p.receiver_installs_got = true;
    p.split_code_data_pages = true;
    p.read_only_args = true;
    p.enforce_exec_permission = true;
    p.confine_control_flow = true;
    return p;
  }
};

}  // namespace twochains::core

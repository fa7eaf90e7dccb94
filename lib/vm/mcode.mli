(** Register programs compiled to flat oqvm bytecode.

    {!compile} flattens a {!Machine.Program.t} — the IR that
    [Machine.Program.compile] turns into a real OPTM — into one
    contiguous [Bytes] program: single-byte opcodes, u8 register
    operands, u16 code-relative jump targets, u32 constants, and the
    {!Opcode.flag_fall} variable-length bit eliding every continuation
    that falls through to the next instruction in the stream (see
    [docs/BYTECODE.md]).

    {!run} interprets the bytecode over an int register file with the
    {e exact} observable semantics of [Machine.Program.interpret]: one
    IR instruction compiles to one bytecode instruction and costs one
    step, so verdicts (including [None] at any [max_steps] boundary),
    the output tape, and the final register file are all identical —
    the differential qcheck battery in [test/test_vm.ml] enforces this
    on random programs.  What the bytecode path drops is the per-call
    [validate] walk and the boxed IR dispatch: validation happens once,
    at {!compile}. *)

type t

val compile : Machine.Program.t -> t
(** Validate, lay out, and encode.  @raise Failure like
    [Machine.Program.validate] on an ill-formed program, if the program
    has more than 255 registers (operands are u8), or if the encoded
    program would overflow u16 jump targets. *)

val run : ?max_steps:int -> t -> string -> Machine.Program.run_result
(** Execute on an input over [{0,1,#}].  [max_steps] defaults to 10^6
    as in [Program.interpret]; a capped run returns [verdict = None]. *)

val name : t -> string

val width : t -> int

val registers : t -> int

val instructions : t -> int
(** Instruction count (equals the source [code] array length). *)

val size : t -> int
(** Total program size in bytes, header included. *)

val to_bytes : t -> bytes
(** A copy of the raw program (header + code). *)

val disasm : t -> string
(** Stable textual listing (golden-tested): a two-line [;] header, then
    one line per instruction — code-relative byte offset, mnemonic,
    operands ([rN] registers, [#v] constants, [->OFF] jump targets,
    ['c'] emitted characters, [fall] for an elided continuation). *)

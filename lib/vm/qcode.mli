(** Circuits compiled to flat oqvm bytecode.

    {!compile} lowers a {!Circuit.Circ.t} — typically already in the
    Definition 2.3 basis via [Circuit.Lower.to_basis], though every
    structured gate is encodable — into one contiguous [Bytes] program
    (header + single-byte opcodes, see {!Opcode} and [docs/BYTECODE.md]).
    {!run} interprets it with a tight dispatch loop that calls the same
    flat-Bigarray {!Quantum.State} kernels, in the same order and with
    equivalent arguments, as the [Circ.run] IR walker — so the two paths
    produce {e bit-identical} amplitudes, which the differential qcheck
    battery in [test/test_vm.ml] enforces on both the sequential and the
    chunked-parallel scheduling paths. *)

type t

val compile : Circuit.Circ.t -> t
(** Encode the circuit's gate stream.  O(gates); performs no state
    computation. *)

val run : t -> Quantum.State.t -> unit
(** Execute on a register in place.
    @raise Invalid_argument on a register-size mismatch, like
    [Circ.run]. *)

val nqubits : t -> int

val gates : t -> int
(** Number of encoded gates. *)

val size : t -> int
(** Total program size in bytes, header included. *)

val to_bytes : t -> bytes
(** A copy of the raw program (header + code). *)

val disasm : t -> string
(** Stable textual listing (golden-tested): a two-line [;] header, then
    one line per instruction with its code-relative byte offset. *)

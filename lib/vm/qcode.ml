open Circuit
open Quantum

type t = { nqubits : int; gates : int; code : Bytes.t }

let nqubits t = t.nqubits
let gates t = t.gates
let size t = Bytes.length t.code
let to_bytes t = Bytes.copy t.code

(* ------------------------------------------------------------- compile *)

let compile circ =
  let nq = Circ.nqubits circ in
  if nq > 0xFF then invalid_arg "Vm.Qcode.compile: qubit budget exceeds u8";
  let buf = Buffer.create (Opcode.header_size + (4 * Circ.length circ)) in
  Buffer.add_string buf Opcode.magic;
  Buffer.add_uint8 buf Opcode.version;
  Buffer.add_uint8 buf Opcode.kind_quantum;
  Buffer.add_uint8 buf nq;
  Buffer.add_uint8 buf 0;
  let op o = Buffer.add_uint8 buf o in
  let u8 v = Buffer.add_uint8 buf v in
  let qubits qs = List.iter u8 qs in
  Circ.iter
    (fun (g : Gate.t) ->
      match g with
      | Gate.H q -> op Opcode.q_h; u8 q
      | Gate.T q -> op Opcode.q_t; u8 q
      | Gate.Tdg q -> op Opcode.q_tdg; u8 q
      | Gate.S q -> op Opcode.q_s; u8 q
      | Gate.Sdg q -> op Opcode.q_sdg; u8 q
      | Gate.X q -> op Opcode.q_x; u8 q
      | Gate.Z q -> op Opcode.q_z; u8 q
      | Gate.Cnot { control; target } -> op Opcode.q_cnot; u8 control; u8 target
      | Gate.Cz (a, b) -> op Opcode.q_cz; u8 a; u8 b
      | Gate.Ccx { c1; c2; target } -> op Opcode.q_ccx; u8 c1; u8 c2; u8 target
      | Gate.Mcx { controls; target } ->
          op Opcode.q_mcx;
          u8 (List.length controls);
          qubits controls;
          u8 target
      | Gate.Mcz qs ->
          op Opcode.q_mcz;
          u8 (List.length qs);
          qubits qs)
    circ;
  { nqubits = nq; gates = Circ.length circ; code = Buffer.to_bytes buf }

(* ----------------------------------------------------------------- run *)

(* The dispatch loop mirrors [Circ.apply_gate] case for case: every
   opcode calls the same State kernel the walker would, so the two
   execution paths are bit-identical by construction.  The multi-qubit
   mask predicates compute the same boolean as the walker's
   [all_ones idx qs]. *)
let run t s =
  if State.nqubits s <> t.nqubits then
    invalid_arg "Vm.Qcode.run: register size mismatch";
  let code = t.code in
  let len = Bytes.length code in
  let pos = ref Opcode.header_size in
  while !pos < len do
    let op = Bytes.get_uint8 code !pos in
    let a i = Bytes.get_uint8 code (!pos + i) in
    (match op with
    | 0x20 (* qh *) -> State.apply_gate1 s Gates.h (a 1); pos := !pos + 2
    | 0x21 (* qt *) -> State.apply_gate1 s Gates.t (a 1); pos := !pos + 2
    | 0x22 (* qtdg *) -> State.apply_gate1 s Gates.tdg (a 1); pos := !pos + 2
    | 0x23 (* qs *) -> State.apply_gate1 s Gates.s (a 1); pos := !pos + 2
    | 0x24 (* qsdg *) -> State.apply_gate1 s Gates.sdg (a 1); pos := !pos + 2
    | 0x25 (* qx *) -> State.apply_gate1 s Gates.x (a 1); pos := !pos + 2
    | 0x26 (* qz *) -> State.apply_gate1 s Gates.z (a 1); pos := !pos + 2
    | 0x27 (* qcnot *) ->
        State.apply_cnot s ~control:(a 1) ~target:(a 2);
        pos := !pos + 3
    | 0x28 (* qcz *) ->
        let mask = (1 lsl a 1) lor (1 lsl a 2) in
        State.apply_phase_if s (fun idx -> idx land mask = mask);
        pos := !pos + 3
    | 0x29 (* qccx *) ->
        let mask = (1 lsl a 1) lor (1 lsl a 2) in
        State.apply_xor_if s (fun idx -> idx land mask = mask) (a 3);
        pos := !pos + 4
    | 0x2A (* qmcx *) ->
        let n = a 1 in
        let mask = ref 0 in
        for i = 0 to n - 1 do
          mask := !mask lor (1 lsl a (2 + i))
        done;
        let mask = !mask in
        State.apply_xor_if s (fun idx -> idx land mask = mask) (a (2 + n));
        pos := !pos + 3 + n
    | 0x2B (* qmcz *) ->
        let n = a 1 in
        let mask = ref 0 in
        for i = 0 to n - 1 do
          mask := !mask lor (1 lsl a (2 + i))
        done;
        let mask = !mask in
        State.apply_phase_if s (fun idx -> idx land mask = mask);
        pos := !pos + 2 + n
    | _ ->
        invalid_arg
          (Printf.sprintf "Vm.Qcode.run: bad opcode 0x%02X at offset %d" op
             (!pos - Opcode.header_size)))
  done

(* -------------------------------------------------------------- disasm *)

let disasm t =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf)
    "; oqvm v%d quantum  qubits %d\n; gates %d  code %d bytes (8 header)\n"
    Opcode.version t.nqubits t.gates
    (Bytes.length t.code);
  let code = t.code in
  let len = Bytes.length code in
  let pos = ref Opcode.header_size in
  while !pos < len do
    let op = Bytes.get_uint8 code !pos in
    let a i = Bytes.get_uint8 code (!pos + i) in
    let qs n from = List.init n (fun i -> Printf.sprintf "q%d" (a (from + i))) in
    let operands, width =
      match op with
      | 0x20 | 0x21 | 0x22 | 0x23 | 0x24 | 0x25 | 0x26 -> (qs 1 1, 2)
      | 0x27 | 0x28 -> (qs 2 1, 3)
      | 0x29 -> (qs 3 1, 4)
      | 0x2A ->
          let n = a 1 in
          (qs (n + 1) 2, 3 + n)
      | 0x2B ->
          let n = a 1 in
          (qs n 2, 2 + n)
      | _ ->
          invalid_arg
            (Printf.sprintf "Vm.Qcode.disasm: bad opcode 0x%02X at offset %d" op
               (!pos - Opcode.header_size))
    in
    Printf.ksprintf (Buffer.add_string buf) "%4d: %-6s %s\n"
      (!pos - Opcode.header_size)
      (Opcode.name op)
      (String.concat " " operands);
    pos := !pos + width
  done;
  Buffer.contents buf

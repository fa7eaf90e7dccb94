open Machine

type t = {
  name : string;
  width : int;
  registers : int;
  instructions : int;
  code : Bytes.t;
}

let name t = t.name
let width t = t.width
let registers t = t.registers
let instructions t = t.instructions
let size t = Bytes.length t.code
let to_bytes t = Bytes.copy t.code

(* ------------------------------------------------------------- compile *)

(* Bytes of an instruction before its (possibly elided) final
   continuation target. *)
let fixed_size (i : Program.instr) =
  match i with
  | Program.Accept | Program.Reject | Program.Goto _ -> 1
  | Program.Jump_if_eq _ | Program.Jump_if_lt _ -> 5
  | Program.Jump_if_max _ -> 4
  | Program.Read _ -> 7
  | Program.Inc _ | Program.Reset _ -> 2
  | Program.Set _ -> 6
  | Program.Add _ | Program.Sub _ -> 3
  | Program.Emit _ -> 2

(* The continuation that can fall through: the last target operand. *)
let final_target (i : Program.instr) =
  match i with
  | Program.Accept | Program.Reject -> None
  | Program.Goto t -> Some t
  | Program.Jump_if_eq { if_ne; _ } -> Some if_ne
  | Program.Jump_if_lt { if_ge; _ } -> Some if_ge
  | Program.Jump_if_max { if_not; _ } -> Some if_not
  | Program.Read { on_eof; _ } -> Some on_eof
  | Program.Inc { next; _ }
  | Program.Reset { next; _ }
  | Program.Set { next; _ }
  | Program.Add { next; _ }
  | Program.Sub { next; _ }
  | Program.Emit { next; _ } -> Some next

let compile (p : Program.t) =
  Program.validate p;
  if p.registers > 0xFF then
    Fmt.failwith "Vm.Mcode.compile: program %s has %d registers, u8 allows 255"
      p.name p.registers;
  let n = Array.length p.code in
  let falls pc = final_target p.code.(pc) = Some (pc + 1) in
  (* Explicit-continuation bytes: 0 for halts (no continuation at all)
     and for elided fallthroughs, 2 for a stored u16 target. *)
  let extra pc =
    match final_target p.code.(pc) with
    | None -> 0
    | Some t -> if t = pc + 1 then 0 else 2
  in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for pc = 0 to n - 1 do
    offsets.(pc) <- !total;
    total := !total + fixed_size p.code.(pc) + extra pc
  done;
  if !total > 0xFFFF then
    Fmt.failwith "Vm.Mcode.compile: program %s exceeds u16 code offsets" p.name;
  let buf = Buffer.create (Opcode.header_size + !total) in
  Buffer.add_string buf Opcode.magic;
  Buffer.add_uint8 buf Opcode.version;
  Buffer.add_uint8 buf Opcode.kind_machine;
  Buffer.add_uint8 buf p.width;
  Buffer.add_uint8 buf p.registers;
  let u8 v = Buffer.add_uint8 buf v in
  let target t = Buffer.add_uint16_le buf offsets.(t) in
  Array.iteri
    (fun pc (i : Program.instr) ->
      let fall = falls pc in
      let op o = u8 (if fall then o lor Opcode.flag_fall else o) in
      let fin t = if not fall then target t in
      match i with
      | Program.Accept -> u8 Opcode.m_acc
      | Program.Reject -> u8 Opcode.m_rej
      | Program.Goto t -> op Opcode.m_jmp; fin t
      | Program.Jump_if_eq { reg_a; reg_b; if_eq; if_ne } ->
          op Opcode.m_jeq; u8 reg_a; u8 reg_b; target if_eq; fin if_ne
      | Program.Jump_if_lt { reg_a; reg_b; if_lt; if_ge } ->
          op Opcode.m_jlt; u8 reg_a; u8 reg_b; target if_lt; fin if_ge
      | Program.Jump_if_max { reg; if_max; if_not } ->
          op Opcode.m_jmax; u8 reg; target if_max; fin if_not
      | Program.Read { on_zero; on_one; on_hash; on_eof } ->
          op Opcode.m_read; target on_zero; target on_one; target on_hash;
          fin on_eof
      | Program.Inc { reg; next } -> op Opcode.m_inc; u8 reg; fin next
      | Program.Reset { reg; next } -> op Opcode.m_clr; u8 reg; fin next
      | Program.Set { reg; value; next } ->
          op Opcode.m_ldi; u8 reg;
          Buffer.add_int32_le buf (Int32.of_int value);
          fin next
      | Program.Add { dst; src; next } -> op Opcode.m_add; u8 dst; u8 src; fin next
      | Program.Sub { dst; src; next } -> op Opcode.m_sub; u8 dst; u8 src; fin next
      | Program.Emit { symbol; next } ->
          op Opcode.m_emit; u8 (Char.code symbol); fin next)
    p.code;
  {
    name = p.name;
    width = p.width;
    registers = p.registers;
    instructions = n;
    code = Buffer.to_bytes buf;
  }

(* ----------------------------------------------------------------- run *)

(* Step accounting mirrors [Program.interpret] exactly: the cap is
   checked before decoding, halting costs no step, everything else costs
   one — so a capped run returns None at the same boundary. *)
let run ?(max_steps = 1_000_000) t input =
  let hs = Opcode.header_size in
  let modulus = 1 lsl t.width in
  let mask = modulus - 1 in
  let regs = Array.make t.registers 0 in
  let buf = Buffer.create 16 in
  let code = t.code in
  let ilen = String.length input in
  let ipos = ref 0 in
  let pc = ref hs in
  let steps = ref 0 in
  let verdict = ref None in
  let running = ref true in
  let u16 off = Bytes.get_uint16_le code off in
  let u32 off = Int32.to_int (Bytes.get_int32_le code off) in
  while !running && !steps < max_steps do
    let byte = Bytes.get_uint8 code !pc in
    let base = byte land lnot Opcode.flag_fall in
    let fall = byte land Opcode.flag_fall <> 0 in
    let a i = Bytes.get_uint8 code (!pc + i) in
    (* Continue past [sz] fixed bytes: fall through, or take the
       explicit u16 target stored there. *)
    let cont sz =
      pc := (if fall then !pc + sz else hs + u16 (!pc + sz));
      incr steps
    in
    let jump off = pc := hs + u16 off; incr steps in
    match base with
    | 0x01 (* acc *) -> verdict := Some true; running := false
    | 0x02 (* rej *) -> verdict := Some false; running := false
    | 0x03 (* jmp *) -> cont 1
    | 0x04 (* jeq *) ->
        if regs.(a 1) = regs.(a 2) then jump (!pc + 3) else cont 5
    | 0x05 (* jlt *) ->
        if regs.(a 1) < regs.(a 2) then jump (!pc + 3) else cont 5
    | 0x06 (* jmax *) -> if regs.(a 1) = mask then jump (!pc + 2) else cont 4
    | 0x07 (* read *) ->
        if !ipos >= ilen then cont 7
        else begin
          let c = input.[!ipos] in
          incr ipos;
          match c with
          | '0' -> jump (!pc + 1)
          | '1' -> jump (!pc + 3)
          | '#' -> jump (!pc + 5)
          | _ -> invalid_arg "Vm.Mcode.run: bad input symbol"
        end
    | 0x10 (* inc *) -> regs.(a 1) <- (regs.(a 1) + 1) land mask; cont 2
    | 0x11 (* clr *) -> regs.(a 1) <- 0; cont 2
    | 0x12 (* ldi *) -> regs.(a 1) <- u32 (!pc + 2); cont 6
    | 0x13 (* add *) -> regs.(a 1) <- (regs.(a 1) + regs.(a 2)) land mask; cont 3
    | 0x14 (* sub *) ->
        regs.(a 1) <- (regs.(a 1) - regs.(a 2) + modulus) land mask;
        cont 3
    | 0x15 (* emit *) -> Buffer.add_char buf (Char.chr (a 1)); cont 2
    | _ ->
        invalid_arg
          (Printf.sprintf "Vm.Mcode.run: bad opcode 0x%02X at offset %d" byte
             (!pc - hs))
  done;
  { Program.verdict = !verdict; output = Buffer.contents buf; final_registers = regs }

(* -------------------------------------------------------------- disasm *)

let disasm t =
  let hs = Opcode.header_size in
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf)
    "; oqvm v%d machine %S\n; width %d  registers %d  instructions %d  code %d bytes (8 header)\n"
    Opcode.version t.name t.width t.registers t.instructions
    (Bytes.length t.code);
  let code = t.code in
  let len = Bytes.length code in
  let u16 off = Bytes.get_uint16_le code off in
  let u32 off = Int32.to_int (Bytes.get_int32_le code off) in
  let pos = ref hs in
  while !pos < len do
    let byte = Bytes.get_uint8 code !pos in
    let base = byte land lnot Opcode.flag_fall in
    let fall = byte land Opcode.flag_fall <> 0 in
    let a i = Bytes.get_uint8 code (!pos + i) in
    let reg i = Printf.sprintf "r%d" (a i) in
    let tgt off = Printf.sprintf "->%d" (u16 off) in
    let operands, fixed =
      match base with
      | 0x01 | 0x02 -> ([], 1)
      | 0x03 -> ([], 1)
      | 0x04 | 0x05 -> ([ reg 1; reg 2; tgt (!pos + 3) ], 5)
      | 0x06 -> ([ reg 1; tgt (!pos + 2) ], 4)
      | 0x07 -> ([ tgt (!pos + 1); tgt (!pos + 3); tgt (!pos + 5) ], 7)
      | 0x10 | 0x11 -> ([ reg 1 ], 2)
      | 0x12 -> ([ reg 1; Printf.sprintf "#%d" (u32 (!pos + 2)) ], 6)
      | 0x13 | 0x14 -> ([ reg 1; reg 2 ], 3)
      | 0x15 -> ([ Printf.sprintf "%C" (Char.chr (a 1)) ], 2)
      | _ ->
          invalid_arg
            (Printf.sprintf "Vm.Mcode.disasm: bad opcode 0x%02X at offset %d"
               byte (!pos - hs))
    in
    let operands, width =
      if base = 0x01 || base = 0x02 then (operands, fixed)
      else if fall then (operands @ [ "fall" ], fixed)
      else (operands @ [ tgt (!pos + fixed) ], fixed + 2)
    in
    (match operands with
    | [] ->
        Printf.ksprintf (Buffer.add_string buf) "%4d: %s\n" (!pos - hs)
          (Opcode.name base)
    | ops ->
        Printf.ksprintf (Buffer.add_string buf) "%4d: %-5s %s\n" (!pos - hs)
          (Opcode.name base) (String.concat " " ops));
    pos := !pos + width
  done;
  Buffer.contents buf

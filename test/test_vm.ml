(* Tests for the lib/vm bytecode subsystem: encoders, the two
   interpreters (circuit and register-machine), and the disassemblers
   against committed golden listings.

   The load-bearing properties are differential: random circuits must
   execute *bit-identically* (exact float equality on every amplitude)
   under the bytecode interpreter and the gate-IR walker, on both the
   sequential and the forced-chunked parallel scheduling paths; random
   register programs must match Machine.Program.interpret on verdict,
   output, and final registers, including at arbitrary max_steps
   boundaries. *)

open Quantum
open Circuit
open Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----------------------------------------------------------- helpers *)

let bell = [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]

(* Exact equality, not approx_equal: the contract is bit-identical. *)
let states_identical s1 s2 =
  let d = State.dim s1 in
  State.dim s2 = d
  &&
  let ok = ref true in
  for i = 0 to d - 1 do
    if State.re s1 i <> State.re s2 i || State.im s1 i <> State.im s2 i then
      ok := false
  done;
  !ok

(* Walker vs bytecode from basis state |start>. *)
let paths_agree circ start =
  let nq = Circ.nqubits circ in
  let walk = State.basis nq start in
  Circ.run circ walk;
  let vm = State.basis nq start in
  Vm.Qcode.run (Vm.Qcode.compile circ) vm;
  states_identical walk vm

let run_result_equal (a : Program.run_result) (b : Program.run_result) =
  a.Program.verdict = b.Program.verdict
  && a.Program.output = b.Program.output
  && a.Program.final_registers = b.Program.final_registers

let golden_path name = Filename.concat "golden" (name ^ ".disasm")

let read_golden name =
  In_channel.with_open_text (golden_path name) In_channel.input_all

(* The deterministic lowered circuit the committed listing pins: a
   structured probe with every gate class, compiled to {H, T, CNOT}. *)
let lowered_golden_circuit () =
  Lower.to_basis
    (Circ.of_gates ~nqubits:3
       [
         Gate.H 0;
         Gate.T 1;
         Gate.Cz (0, 1);
         Gate.Ccx { c1 = 0; c2 = 1; target = 2 };
         Gate.X 2;
       ])

let machine_gallery =
  [
    ("parity", Program.parity);
    ("run_length_equal", Program.run_length_equal ~width:5);
    ("fingerprint_eq", Program.fingerprint_eq ~p:17 ~t:3);
    ("ldisj_shape", Program.ldisj_shape ~width:7);
    ("beacon", Program.beacon);
  ]

(* ------------------------------------------------------------ encoding *)

let test_qcode_header () =
  let c = Circ.of_gates ~nqubits:2 bell in
  let prog = Vm.Qcode.compile c in
  check_int "nqubits" 2 (Vm.Qcode.nqubits prog);
  check_int "gates" 2 (Vm.Qcode.gates prog);
  (* 8-byte header + H(2) + CNOT(3). *)
  check_int "size" 13 (Vm.Qcode.size prog);
  let b = Vm.Qcode.to_bytes prog in
  check_str "magic" "OQVM" (Bytes.sub_string b 0 4);
  check_int "version" 1 (Bytes.get_uint8 b 4);
  check_int "kind Q" (Char.code 'Q') (Bytes.get_uint8 b 5);
  check_int "header nqubits" 2 (Bytes.get_uint8 b 6)

let test_mcode_header () =
  let prog = Vm.Mcode.compile Program.parity in
  check_str "name" "parity" (Vm.Mcode.name prog);
  check_int "width" 1 (Vm.Mcode.width prog);
  check_int "registers" 2 (Vm.Mcode.registers prog);
  check_int "instructions" 5 (Vm.Mcode.instructions prog);
  let b = Vm.Mcode.to_bytes prog in
  check_str "magic" "OQVM" (Bytes.sub_string b 0 4);
  check_int "kind M" (Char.code 'M') (Bytes.get_uint8 b 5);
  check_int "header width" 1 (Bytes.get_uint8 b 6);
  check_int "header registers" 2 (Bytes.get_uint8 b 7)

let test_fallthrough_elision () =
  (* Goto to the next instruction is 1 byte (flag set); an explicit
     backward Goto costs 3.  Decode the flag straight off the bytes. *)
  let p next =
    {
      Program.name = "fall";
      width = 1;
      registers = 1;
      code = [| Program.Goto next; Program.Accept |];
    }
  in
  let falls = Vm.Mcode.compile (p 1) in
  let backward = Vm.Mcode.compile (p 0) in
  check_int "elided size" (8 + 1 + 1) (Vm.Mcode.size falls);
  check_int "explicit size" (8 + 3 + 1) (Vm.Mcode.size backward);
  check "flag set" true
    (Bytes.get_uint8 (Vm.Mcode.to_bytes falls) 8 land 0x80 <> 0);
  check "flag clear" true
    (Bytes.get_uint8 (Vm.Mcode.to_bytes backward) 8 land 0x80 = 0)

let test_compile_validates () =
  let bad =
    { Program.name = "bad"; width = 1; registers = 1; code = [| Program.Goto 7 |] }
  in
  check "invalid program rejected" true
    (match Vm.Mcode.compile bad with
    | exception Failure _ -> true
    | _ -> false)

(* Register operands and the header's register count are u8: a program
   past 255 registers must be refused, not truncated (r256 would alias
   r0 and flip this verdict). *)
let test_compile_rejects_wide_register_file () =
  let p =
    {
      Program.name = "wide";
      width = 1;
      registers = 300;
      code =
        [|
          Program.Set { reg = 256; value = 1; next = 1 };
          Program.Jump_if_eq { reg_a = 0; reg_b = 256; if_eq = 2; if_ne = 3 };
          Program.Accept;
          Program.Reject;
        |];
    }
  in
  check "interpreter rejects" true ((Program.interpret p "").Program.verdict = Some false);
  check "compile refuses" true
    (match Vm.Mcode.compile p with
    | exception Failure _ -> true
    | _ -> false)

let test_qcode_register_mismatch () =
  let prog = Vm.Qcode.compile (Circ.of_gates ~nqubits:2 bell) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Vm.Qcode.run: register size mismatch") (fun () ->
      Vm.Qcode.run prog (State.create 3))

(* ------------------------------------------------- machine semantics *)

let test_mcode_gallery_agrees () =
  let inputs =
    [ ""; "0"; "1"; "#"; "1101"; "000111"; "10#01"; "111#111"; "0101#1010#";
      "1#1#1#"; String.make 40 '1'; "01#10#01#10" ]
  in
  List.iter
    (fun (name, p) ->
      let compiled = Vm.Mcode.compile p in
      List.iter
        (fun input ->
          let reference = Program.interpret p input in
          let got = Vm.Mcode.run compiled input in
          check
            (Printf.sprintf "%s on %S" name input)
            true
            (run_result_equal reference got))
        inputs)
    machine_gallery

let test_mcode_step_cap_exact () =
  (* The verdict must flip from None to Some at exactly the same
     max_steps boundary as the interpreter's. *)
  let p = Program.parity in
  let compiled = Vm.Mcode.compile p in
  for cap = 0 to 12 do
    let reference = Program.interpret ~max_steps:cap p "1101" in
    let got = Vm.Mcode.run ~max_steps:cap compiled "1101" in
    check
      (Printf.sprintf "cap %d" cap)
      true
      (run_result_equal reference got)
  done

let test_mcode_bad_symbol () =
  let compiled = Vm.Mcode.compile Program.parity in
  Alcotest.check_raises "bad symbol"
    (Invalid_argument "Vm.Mcode.run: bad input symbol") (fun () ->
      ignore (Vm.Mcode.run compiled "10x"))

(* --------------------------------------------------------- goldens *)

let test_machine_goldens () =
  List.iter
    (fun (name, p) ->
      check_str
        (Printf.sprintf "golden %s" name)
        (read_golden name)
        (Vm.Mcode.disasm (Vm.Mcode.compile p)))
    machine_gallery

let test_circuit_golden () =
  check_str "golden lowered circuit"
    (read_golden "lowered_circuit")
    (Vm.Qcode.disasm (Vm.Qcode.compile (lowered_golden_circuit ())))

let test_disasm_stable () =
  (* Disassembling twice, or from a recompiled program, is bytewise
     stable — the property the goldens rely on. *)
  List.iter
    (fun (name, p) ->
      let d1 = Vm.Mcode.disasm (Vm.Mcode.compile p) in
      let d2 = Vm.Mcode.disasm (Vm.Mcode.compile p) in
      check_str (Printf.sprintf "stable %s" name) d1 d2)
    machine_gallery;
  let c = lowered_golden_circuit () in
  check_str "stable circuit"
    (Vm.Qcode.disasm (Vm.Qcode.compile c))
    (Vm.Qcode.disasm (Vm.Qcode.compile c))

(* ------------------------------------------------- differential qcheck *)

let gate_gen nq =
  let open QCheck.Gen in
  let q = int_range 0 (nq - 1) in
  let rot b i = (b + i) mod nq in
  let g1 =
    oneof
      [
        map (fun q -> Gate.H q) q;
        map (fun q -> Gate.T q) q;
        map (fun q -> Gate.Tdg q) q;
        map (fun q -> Gate.S q) q;
        map (fun q -> Gate.Sdg q) q;
        map (fun q -> Gate.X q) q;
        map (fun q -> Gate.Z q) q;
      ]
  in
  let g2 =
    oneof
      [
        map (fun b -> Gate.Cnot { control = rot b 0; target = rot b 1 }) q;
        map (fun b -> Gate.Cz (rot b 0, rot b 1)) q;
      ]
  in
  let g3 =
    oneof
      [
        map (fun b -> Gate.Ccx { c1 = rot b 0; c2 = rot b 1; target = rot b 2 }) q;
        map (fun b -> Gate.Mcz [ rot b 0; rot b 1; rot b 2 ]) q;
      ]
  in
  let gmcx =
    map
      (fun b ->
        Gate.Mcx { controls = [ rot b 0; rot b 1; rot b 2 ]; target = rot b 3 })
      q
  in
  if nq >= 4 then frequency [ (6, g1); (4, g2); (2, g3); (1, gmcx) ]
  else frequency [ (6, g1); (4, g2); (2, g3) ]

let circuit_case ~max_qubits =
  let open QCheck in
  let gen =
    Gen.(
      int_range 3 max_qubits >>= fun nq ->
      list_size (int_range 1 25) (gate_gen nq) >>= fun gs ->
      int_bound ((1 lsl nq) - 1) >>= fun start -> return (nq, gs, start))
  in
  let print (nq, gs, start) =
    Format.asprintf "@[<v>nq=%d start=|%d>@,%a@]" nq start
      (Format.pp_print_list Gate.pp)
      gs
  in
  make ~print gen

let instr_gen n registers width =
  let open QCheck.Gen in
  let t = int_bound (n - 1) in
  let r = int_bound (registers - 1) in
  frequency
    [
      ( 3,
        map
          (fun ((a, b), (c, d)) ->
            Program.Read { on_zero = a; on_one = b; on_hash = c; on_eof = d })
          (pair (pair t t) (pair t t)) );
      (2, map (fun (reg, next) -> Program.Inc { reg; next }) (pair r t));
      (1, map (fun (reg, next) -> Program.Reset { reg; next }) (pair r t));
      ( 1,
        map
          (fun ((reg, value), next) -> Program.Set { reg; value; next })
          (pair (pair r (int_bound ((1 lsl width) - 1))) t) );
      ( 1,
        map
          (fun ((dst, src), next) -> Program.Add { dst; src; next })
          (pair (pair r r) t) );
      ( 1,
        map
          (fun ((dst, src), next) -> Program.Sub { dst; src; next })
          (pair (pair r r) t) );
      ( 2,
        map
          (fun ((reg_a, reg_b), (if_eq, if_ne)) ->
            Program.Jump_if_eq { reg_a; reg_b; if_eq; if_ne })
          (pair (pair r r) (pair t t)) );
      ( 2,
        map
          (fun ((reg_a, reg_b), (if_lt, if_ge)) ->
            Program.Jump_if_lt { reg_a; reg_b; if_lt; if_ge })
          (pair (pair r r) (pair t t)) );
      ( 1,
        map
          (fun (reg, (if_max, if_not)) ->
            Program.Jump_if_max { reg; if_max; if_not })
          (pair r (pair t t)) );
      ( 1,
        map
          (fun (symbol, next) -> Program.Emit { symbol; next })
          (pair (oneofl [ 'a'; 'b'; '!' ]) t) );
      (1, map (fun tgt -> Program.Goto tgt) t);
      (1, return Program.Accept);
      (1, return Program.Reject);
    ]

let program_case =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 12 >>= fun n ->
      int_range 1 4 >>= fun registers ->
      int_range 1 6 >>= fun width ->
      array_size (return n) (instr_gen n registers width) >>= fun code ->
      string_size ~gen:(oneofl [ '0'; '1'; '#' ]) (int_range 0 25)
      >>= fun input ->
      int_range 0 200 >>= fun cap ->
      return ({ Program.name = "rand"; width; registers; code }, input, cap))
  in
  let print (p, input, cap) =
    Format.asprintf "width=%d regs=%d cap=%d input=%S code=[%s]"
      p.Program.width p.Program.registers cap input
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (i : Program.instr) ->
                 match i with
                 | Program.Read _ -> "read"
                 | Program.Inc _ -> "inc"
                 | Program.Reset _ -> "clr"
                 | Program.Set _ -> "ldi"
                 | Program.Add _ -> "add"
                 | Program.Sub _ -> "sub"
                 | Program.Jump_if_eq _ -> "jeq"
                 | Program.Jump_if_lt _ -> "jlt"
                 | Program.Jump_if_max _ -> "jmax"
                 | Program.Emit _ -> "emit"
                 | Program.Goto _ -> "jmp"
                 | Program.Accept -> "acc"
                 | Program.Reject -> "rej")
               p.Program.code)))
  in
  make ~print gen

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bytecode = walker on random structured circuits"
      ~count:120 (circuit_case ~max_qubits:5) (fun (nq, gs, start) ->
        paths_agree (Circ.of_gates ~nqubits:nq gs) start);
    Test.make ~name:"bytecode = walker on random lowered circuits (<= 8 qubits)"
      ~count:60 (circuit_case ~max_qubits:4) (fun (nq, gs, start) ->
        let lowered = Lower.to_basis (Circ.of_gates ~nqubits:nq gs) in
        assume (Circ.nqubits lowered <= 8);
        Circ.is_basis_only lowered && paths_agree lowered start);
    Test.make ~name:"bytecode = walker on the forced-parallel path" ~count:60
      (circuit_case ~max_qubits:5) (fun (nq, gs, start) ->
        let saved = State.parallel_threshold () in
        State.set_parallel_threshold 0;
        Fun.protect
          ~finally:(fun () -> State.set_parallel_threshold saved)
          (fun () -> paths_agree (Circ.of_gates ~nqubits:nq gs) start));
    Test.make ~name:"bytecode machine = interpreter on random programs"
      ~count:200 program_case (fun (p, input, _cap) ->
        let reference = Program.interpret ~max_steps:2000 p input in
        let got = Vm.Mcode.run ~max_steps:2000 (Vm.Mcode.compile p) input in
        run_result_equal reference got);
    Test.make ~name:"bytecode machine honours arbitrary step caps" ~count:150
      program_case (fun (p, input, cap) ->
        let reference = Program.interpret ~max_steps:cap p input in
        let got = Vm.Mcode.run ~max_steps:cap (Vm.Mcode.compile p) input in
        run_result_equal reference got);
    Test.make ~name:"machine disassembly is decodable on random programs"
      ~count:100 program_case (fun (p, _, _) ->
        let compiled = Vm.Mcode.compile p in
        let d = Vm.Mcode.disasm compiled in
        (* One listing line per instruction, plus the two-line header. *)
        let lines = String.split_on_char '\n' (String.trim d) in
        List.length lines = Vm.Mcode.instructions compiled + 2);
  ]

let suite =
  [
    ("qcode header", `Quick, test_qcode_header);
    ("mcode header", `Quick, test_mcode_header);
    ("fallthrough elision", `Quick, test_fallthrough_elision);
    ("compile validates", `Quick, test_compile_validates);
    ("compile rejects > 255 registers", `Quick, test_compile_rejects_wide_register_file);
    ("qcode register mismatch", `Quick, test_qcode_register_mismatch);
    ("machine gallery agrees", `Quick, test_mcode_gallery_agrees);
    ("step cap exact", `Quick, test_mcode_step_cap_exact);
    ("bad input symbol", `Quick, test_mcode_bad_symbol);
    ("machine goldens", `Quick, test_machine_goldens);
    ("circuit golden", `Quick, test_circuit_golden);
    ("disasm stable", `Quick, test_disasm_stable);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

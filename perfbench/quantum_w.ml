(* The quantum workload, in two parts.

   Streaming: [Oqsc.Recognizer.run] on a k = 7 member, a t = 1
   intersecting instance and a corrupted repetition.  The register has
   2k + 2 = 16 qubits (dim 2^16, at or above [Quantum.State]'s parallel
   threshold), and A3 applies per-bit address operations as the input
   streams past.  A pass costs in proportion to the Grover count j that
   A3 draws, so each pass's coins are drawn from the seed until j lands
   within 2 of 2^{k-1}: every pass then costs what a pass costs on
   average over j, whatever the seed.

   Circuit: one k = 3 A3 circuit emitted with [~force_j:3], lowered to
   {H, T, CNOT} with [Circuit.Lower.to_basis], and executed once by the
   walker ([Circuit.Circ.run]) and once by the bytecode VM
   ([Vm.Qcode.compile]/[run]); many small kernel calls.  The circuit's
   input has fixed-weight x and y (half of the bits each), so its
   gate count does not depend on the seed either. *)

open Machine
open Mathx
module Instance = Lang.Instance

let k = 7
let circuit_k = 3
let circuit_j = 3

type pass = { inst : Instance.t; coins : int; j : int; mutable run_s : float }

type inputs = {
  passes : pass list;
  structured : Circuit.Circ.t;  (** the emitted k = 3 A3 circuit *)
}

(* The recognizer creates A2 and then A3 from its generator on the
   prefix separator; A3's j is the draw that follows A2's. *)
let predicted_j coins =
  let rng = Rng.create coins in
  ignore (Oqsc.A2.create (Workspace.create ()) rng ~k);
  Rng.int rng (1 lsl k)

let coins_near rng target =
  let rec go () =
    let coins = Rng.bits62 rng in
    let j = predicted_j coins in
    if abs (j - target) <= 2 then (coins, j) else go ()
  in
  go ()

let emit_circuit rng =
  let inst = Instance.sparse_pair rng ~k:circuit_k ~weight:(1 lsl (2 * circuit_k) / 2) in
  let ws = Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let a3 = ref None in
  Stream.iter
    (fun sym ->
      let role = Oqsc.A1.feed a1 sym in
      (match role with
      | Oqsc.A1.Prefix_sep ->
          a3 := Some (Oqsc.A3.create ~emit_circuit:true ~force_j:circuit_j ws rng ~k:circuit_k)
      | _ -> ());
      Option.iter (fun a3 -> Oqsc.A3.observe a3 role) !a3)
    (Stream.of_string inst.input);
  match Option.bind !a3 Oqsc.A3.circuit with
  | Some c -> c
  | None -> failwith "quantum-k7: A3 emitted no circuit"

let setup seed =
  let rng = Rng.create seed in
  let member = Instance.disjoint_pair (Rng.split rng) ~k in
  let inter = Instance.intersecting_pair (Rng.split rng) ~k ~t:1 in
  let corrupted = Instance.corrupt_repetition (Rng.split rng) ~base:member in
  let passes =
    List.map
      (fun inst ->
        let coins, j = coins_near rng (1 lsl (k - 1)) in
        { inst; coins; j; run_s = nan })
      [ member; inter; corrupted ]
  in
  { passes; structured = emit_circuit (Rng.split rng) }

(* --------------------------------------------------------------- round *)

let peak_bits = ref 0
let recognizer_s = ref 0.0

let check_recognizer p (r : Oqsc.Recognizer.run) =
  let what = Printf.sprintf "Recognizer.run on %s (j=%d)" (Classical.label_name p.inst) p.j in
  let ok =
    r.space.qubits = (2 * k) + 2
    &&
    match p.inst.label with
    | Instance.In_language -> r.accept && r.accept_probability = 1.0 && r.a1_ok && r.a2_ok
    | Instance.Not_in_language (Instance.Intersecting t) ->
        (* BBHT: after j Grover iterations A3 outputs 0 with probability
           sin^2((2j + 1) theta), sin^2 theta = t / 2^{2k}. *)
        let theta = asin (sqrt (float_of_int t /. float_of_int (1 lsl (2 * k)))) in
        let reject = sin (float_of_int ((2 * p.j) + 1) *. theta) ** 2.0 in
        r.a1_ok && r.a2_ok && Float.abs (r.accept_probability -. (1.0 -. reject)) < 1e-9
    | Instance.Not_in_language (Instance.Inconsistent _) ->
        (not r.accept) && r.a1_ok && (not r.a2_ok) && r.accept_probability = 0.0
    | Instance.Not_in_language (Instance.Malformed _) -> (not r.accept) && not r.a1_ok
  in
  Common.check what ok

let same_bits a b =
  let open Quantum.State in
  dim a = dim b
  && Seq.for_all
       (fun i ->
         Int64.equal (Int64.bits_of_float (re a i)) (Int64.bits_of_float (re b i))
         && Int64.equal (Int64.bits_of_float (im a i)) (Int64.bits_of_float (im b i)))
       (Seq.init (dim a) Fun.id)

type circuit_times = {
  mutable gates : int;
  mutable lower_s : float;
  mutable walker_s : float;
  mutable compile_s : float;
  mutable vm_s : float;
}

let ct = { gates = 0; lower_s = nan; walker_s = nan; compile_s = nan; vm_s = nan }

let last () = List.hd !Common.latencies

let round inputs () =
  recognizer_s := 0.0;
  List.iter
    (fun p ->
      let r =
        Common.call ~tag:(Classical.label_name p.inst) "core.recognizer.run" (fun () ->
            Oqsc.Recognizer.run ~rng:(Rng.create p.coins) p.inst.input)
      in
      p.run_s <- last ();
      recognizer_s := !recognizer_s +. p.run_s;
      Common.symbols := !Common.symbols + String.length p.inst.input;
      peak_bits := max !peak_bits (r.space.classical_bits + r.space.qubits);
      check_recognizer p r)
    inputs.passes;
  (* Latency samples: one per circuit execution, the VM's including its
     compilation; the shared lowering is timed but not a sample. *)
  let tag = Printf.sprintf "k=%d j=%d" circuit_k circuit_j in
  let basis, lower_s =
    Common.step ~tag "circuit.lower.to_basis" (fun () -> Circuit.Lower.to_basis inputs.structured)
  in
  ct.lower_s <- lower_s;
  ct.gates <- Circuit.Circ.length basis;
  let nq = Circuit.Circ.nqubits basis in
  let walker = Quantum.State.create nq and vm = Quantum.State.create nq in
  Common.call ~tag "circuit.circ.run" (fun () -> Circuit.Circ.run basis walker);
  ct.walker_s <- last ();
  let code =
    Common.call ~tag "vm.qcode" (fun () ->
        let code, compile_s =
          Common.step ~tag "vm.qcode.compile" (fun () -> Vm.Qcode.compile basis)
        in
        ct.compile_s <- compile_s;
        let (), run_s = Common.step ~tag "vm.qcode.run" (fun () -> Vm.Qcode.run code vm) in
        ct.vm_s <- run_s;
        code)
  in
  Common.check "lowered circuit is {H, T, CNOT} only" (Circuit.Circ.is_basis_only basis);
  Common.check "VM program holds every basis gate" (Vm.Qcode.gates code = ct.gates);
  fun () -> Common.check "walker and VM final states are bit-identical" (same_bits walker vm)

(* ---------------------------------------------------------- traced *)

let per_layer ctx inputs =
  let decomposed =
    List.map (fun p -> Classical.decompose ~coins:p.coins p.inst) inputs.passes
  in
  peak_bits := 0;
  Common.traced_round ~sink:true ctx (round inputs);
  let n =
    Common.sum (List.map (fun p -> float_of_int (String.length p.inst.input)) inputs.passes)
  in
  let a1a2 = Classical.set_stream_layers decomposed ~symbols:n in
  Common.set "core.a3.ns_per_symbol" ((!recognizer_s -. a1a2) /. n *. 1e9);
  Common.set "symbols_per_s" (n /. !recognizer_s);
  Common.set "machine.workspace.peak_bits" (float_of_int !peak_bits);
  let g = float_of_int ct.gates in
  Common.set "circuit.lower.to_basis_s" ct.lower_s;
  Common.set "circuit.lower.basis_gates" g;
  Common.set "circuit.circ.run_ns_per_gate" (ct.walker_s /. g *. 1e9);
  Common.set "vm.qcode.compile_s" ct.compile_s;
  Common.set "vm.qcode.run_ns_per_gate" (ct.vm_s /. g *. 1e9);
  Common.set "gates_per_s" (2.0 *. g /. (ct.walker_s +. ct.vm_s));
  let module J = Experiments.Json in
  let row p (d : Classical.passes) =
    J.Obj
      [
        ("instance", J.Str (Classical.label_name p.inst));
        ("j", J.Int p.j);
        ("symbols", J.Int (String.length p.inst.input));
        ("stream_s", J.Float d.stream_s);
        ("a1_s", J.Float d.a1_s);
        ("a1a2_s", J.Float d.a1a2_s);
        ("recognizer_s", J.Float p.run_s);
      ]
  in
  Common.report := ("layers", J.List (List.map2 row inputs.passes decomposed)) :: !Common.report

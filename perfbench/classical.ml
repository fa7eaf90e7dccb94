(* The classical streaming workloads: L_DISJ instances through the
   n^{1/3} block recognizer and the naive 2^{2k}-bit recognizer.

   [classical-k8] runs one member through [Classical_block.run] and one
   t = 1 intersecting instance through [Naive.run]; at k = 8 the
   fingerprint prime exceeds 2^31, so A2's [Modarith.mulmod] leaves its
   native path.  [classical-k7] runs the whole k = 7 standard suite
   through both recognizers, on the native path.  Two suites are drawn:
   a suite's two malformed instances are cheap when A1 rejects them
   early and full-cost otherwise, and with one suite that draw alone
   moves a round's cost by about 10 %.

   The traced run also times the layers in isolation over the same
   inputs: a bare [Stream.iter], A1 alone, and A1 + A2 composed from
   [A1.feed]/[A2.observe] exactly as the recognizers compose them.  The
   differences between consecutive passes are the per-layer costs. *)

open Machine
open Mathx
module Instance = Lang.Instance

type job = {
  inst : Instance.t;
  coins : int;  (** seed of the recognizers' random generator *)
  block : bool;  (** run through [Classical_block.run] *)
  naive : bool;  (** run through [Naive.run] *)
  profile : bool;  (** gets its own isolated layer passes in the traced run *)
  mutable block_s : float;  (** latest pass times *)
  mutable naive_s : float;
}

let job ?(profile = true) ~block ~naive inst coins =
  { inst; coins; block; naive; profile; block_s = nan; naive_s = nan }

let k8_jobs seed =
  let rng = Rng.create seed in
  let member = Instance.disjoint_pair (Rng.split rng) ~k:8 in
  let inter = Instance.intersecting_pair (Rng.split rng) ~k:8 ~t:1 in
  let member = job ~block:true ~naive:false member (Rng.bits62 rng) in
  (* At k = 8 an A1 + A2 pass takes as long as a recognizer; the t = 1
     instance has the member's length, prime and bit density, so it
     shares the member's layer passes. *)
  [ member; job ~profile:false ~block:false ~naive:true inter (Rng.bits62 rng) ]

let k7_jobs seed =
  let rng = Rng.create seed in
  List.concat_map (fun _ -> Instance.standard_suite (Rng.split rng) ~k:7) [ 1; 2 ]
  |> List.map (fun inst -> job ~block:true ~naive:true inst (Rng.bits62 rng))

let label_name (inst : Instance.t) =
  match inst.label with
  | Instance.In_language -> "member"
  | Instance.Not_in_language (Instance.Intersecting t) -> Printf.sprintf "intersecting(t=%d)" t
  | Instance.Not_in_language (Instance.Inconsistent _) -> "corrupted"
  | Instance.Not_in_language (Instance.Malformed _) -> "malformed"

(* The verdict and flags each label demands of an exact recognizer. *)
let check_run ~who ~storage (inst : Instance.t) ~accept ~a1_ok ~a2_ok ~collision ~storage_bits =
  let what = Printf.sprintf "%s on %s (k=%d)" who (label_name inst) inst.k in
  let ok =
    match inst.label with
    | Instance.In_language -> accept && a1_ok && a2_ok && (not collision) && storage_bits = storage
    | Instance.Not_in_language (Instance.Intersecting _) ->
        (not accept) && a1_ok && a2_ok && collision && storage_bits = storage
    | Instance.Not_in_language (Instance.Inconsistent _) ->
        (not accept) && a1_ok && (not a2_ok) && storage_bits = storage
    | Instance.Not_in_language (Instance.Malformed _) -> (not accept) && not a1_ok
  in
  Common.check what ok

let peak_bits = ref 0

let run_block job =
  let n = String.length job.inst.input in
  let r =
    Common.call ~tag:(label_name job.inst) "core.classical_block.run" (fun () ->
        Oqsc.Classical_block.run ~rng:(Rng.create job.coins) job.inst.input)
  in
  job.block_s <- List.hd !Common.latencies;
  Common.symbols := !Common.symbols + n;
  peak_bits := max !peak_bits r.space_bits;
  check_run ~who:"Classical_block.run" ~storage:(1 lsl job.inst.k) job.inst ~accept:r.accept
    ~a1_ok:r.a1_ok ~a2_ok:r.a2_ok ~collision:r.collision_found ~storage_bits:r.storage_bits

let run_naive job =
  let n = String.length job.inst.input in
  let r =
    Common.call ~tag:(label_name job.inst) "core.naive.run" (fun () ->
        Oqsc.Naive.run ~rng:(Rng.create job.coins) job.inst.input)
  in
  job.naive_s <- List.hd !Common.latencies;
  Common.symbols := !Common.symbols + n;
  peak_bits := max !peak_bits r.space_bits;
  check_run ~who:"Naive.run" ~storage:(1 lsl (2 * job.inst.k)) job.inst ~accept:r.accept
    ~a1_ok:r.a1_ok ~a2_ok:r.a2_ok ~collision:r.collision_found ~storage_bits:r.storage_bits

let round jobs () =
  List.iter
    (fun job ->
      if job.block then run_block job;
      if job.naive then run_naive job)
    jobs;
  ignore

(* ------------------------------------------------ layer decomposition *)

let stream_pass input =
  let n = ref 0 in
  Stream.iter (fun _ -> incr n) (Stream.of_string input);
  !n

(* A1 alone; also counts the block bits, each of which A2 meets with
   one [Modarith.mulmod]. *)
let a1_pass input =
  let a1 = Oqsc.A1.create (Workspace.create ()) in
  let bits = ref 0 in
  Stream.iter
    (fun sym -> match Oqsc.A1.feed a1 sym with Oqsc.A1.Block_bit _ -> incr bits | _ -> ())
    (Stream.of_string input);
  (Oqsc.A1.finished_ok a1, !bits)

(* A1 + A2 exactly as the recognizers compose them (A2 created on the
   prefix separator from the same coins). *)
let a1a2_pass ~coins input =
  let ws = Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let rng = Rng.create coins in
  let a2 = ref None in
  Stream.iter
    (fun sym ->
      let role = Oqsc.A1.feed a1 sym in
      (match role with
      | Oqsc.A1.Prefix_sep -> (
          match Oqsc.A1.k a1 with
          | Some k when k <= Oqsc.A1.max_k -> a2 := Some (Oqsc.A2.create ws rng ~k)
          | _ -> ())
      | _ -> ());
      match !a2 with None -> () | Some a2 -> Oqsc.A2.observe a2 role)
    (Stream.of_string input);
  (Oqsc.A1.finished_ok a1, Option.fold ~none:false ~some:Oqsc.A2.verdict !a2)

type passes = { stream_s : float; a1_s : float; a1a2_s : float; mulmods : int }

let decompose ~coins (inst : Instance.t) =
  let tag = label_name inst and input = inst.input in
  let n, stream_s = Common.step ~tag "machine.stream.iter" (fun () -> stream_pass input) in
  Common.check "Stream.iter yields every symbol" (n = String.length input);
  let (a1_ok, mulmods), a1_s = Common.step ~tag "core.a1.scan" (fun () -> a1_pass input) in
  let (a1_ok', a2_ok), a1a2_s =
    Common.step ~tag "core.a1a2.scan" (fun () -> a1a2_pass ~coins input)
  in
  let malformed, consistent =
    match inst.label with
    | Instance.Not_in_language (Instance.Malformed _) -> (true, true)
    | Instance.Not_in_language (Instance.Inconsistent _) -> (false, false)
    | _ -> (false, true)
  in
  Common.check ("A1 alone on " ^ tag) (a1_ok = (not malformed) && a1_ok' = a1_ok);
  if not malformed then Common.check ("A1 + A2 on " ^ tag) (a2_ok = consistent);
  { stream_s; a1_s; a1a2_s; mulmods }

(* [calls] chained multiplications by A2's own point t modulo the
   workload's own prime, as A2 advances t^idx; checked against
   [Modarith.powmod]. *)
let mulmod_ns ~k ~coins =
  let p = Primes.fingerprint_prime k in
  let t = Oqsc.A2.point (Oqsc.A2.create (Workspace.create ()) (Rng.create coins) ~k) in
  let calls = 1 lsl 21 in
  let acc = ref 1 in
  let (), s =
    Common.step ~tag:(Printf.sprintf "p=%d" p) "mathx.modarith.mulmod" (fun () ->
        for _ = 1 to calls do
          acc := Modarith.mulmod !acc t p
        done)
  in
  Common.check "mulmod chain equals powmod" (!acc = Modarith.powmod t calls p);
  s /. float_of_int calls *. 1e9

(* Sets the stream / A1 / A2 layer metrics from the passes over inputs
   of [symbols] symbols in all, and returns the total A1 + A2 time. *)
let set_stream_layers passes ~symbols =
  let total f = Common.sum (List.map f passes) in
  let stream = total (fun p -> p.stream_s) and a1 = total (fun p -> p.a1_s) in
  let a1a2 = total (fun p -> p.a1a2_s) in
  let per_symbol s = s /. symbols *. 1e9 in
  Common.set "machine.stream.ns_per_symbol" (per_symbol stream);
  Common.set "core.a1.ns_per_symbol" (per_symbol (a1 -. stream));
  Common.set "core.a2.ns_per_symbol" (per_symbol (a1a2 -. a1));
  Common.set "ratio.a1_over_stream" (a1 /. stream);
  Common.set "ratio.a1a2_over_stream" (a1a2 /. stream);
  a1a2

let per_layer ctx jobs =
  let profiled = List.filter (fun job -> job.profile) jobs in
  let own = List.map (fun job -> (job, decompose ~coins:job.coins job.inst)) profiled in
  let first = List.hd profiled in
  Common.set "mathx.modarith.mulmod_ns" (mulmod_ns ~k:first.inst.k ~coins:first.coins);
  peak_bits := 0;
  Common.traced_round ~sink:true ctx (round jobs);
  let length job = float_of_int (String.length job.inst.input) in
  let symbols = Common.sum (List.map length profiled) in
  ignore (set_stream_layers (List.map snd own) ~symbols);
  (* A job without passes of its own uses those of the first profiled
     job of its length. *)
  let passes =
    List.map
      (fun job ->
        match List.assq_opt job own with
        | Some p -> (job, p)
        | None ->
            let n = String.length job.inst.input in
            (job, snd (List.find (fun (j, _) -> String.length j.inst.input = n) own)))
      jobs
  in
  let total f = Common.sum (List.map f passes) in
  Common.set "machine.workspace.peak_bits" (float_of_int !peak_bits);
  (* Storage cost: each recognizer pass minus the A1 + A2 pass. *)
  let store flag time = total (fun (job, p) -> if flag job then time job -. p.a1a2_s else 0.0) in
  Common.set "core.classical_block.store_s" (store (fun j -> j.block) (fun j -> j.block_s));
  Common.set "core.naive.store_s" (store (fun j -> j.naive) (fun j -> j.naive_s));
  let calls (job, p) = float_of_int (p.mulmods * (Bool.to_int job.block + Bool.to_int job.naive)) in
  Common.set "mathx.modarith.mulmod_calls" (total calls);
  (* The layer table: one row per instance, seconds per pass. *)
  let module J = Experiments.Json in
  let opt flag t = if flag then J.Float t else J.Null in
  let row (job, p) =
    J.Obj
      [
        ("instance", J.Str (label_name job.inst));
        ("symbols", J.Int (String.length job.inst.input));
        ("own_passes", J.Bool job.profile);
        ("stream_s", J.Float p.stream_s);
        ("a1_s", J.Float p.a1_s);
        ("a1a2_s", J.Float p.a1a2_s);
        ("block_s", opt job.block job.block_s);
        ("naive_s", opt job.naive job.naive_s);
      ]
  in
  Common.report := ("layers", J.List (List.map row passes)) :: !Common.report

(* Clocks, statistics, correctness accounting, the timed-round loop and
   result printing shared by every workload. *)

let now () = Int64.to_float (Obs.Trace.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (numpy's default). *)
let quantile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

(* ---------------------------------------------------------- metrics *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("requests_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* A layer a workload does not exercise reads 0. *)
let per_layer =
  [
    ("lang.instance.generate_s", "s");
    ("machine.stream.ns_per_symbol", "ns");
    ("core.a1.ns_per_symbol", "ns");
    ("core.a2.ns_per_symbol", "ns");
    ("core.a3.ns_per_symbol", "ns");
    ("mathx.modarith.mulmod_ns", "ns");
    ("mathx.modarith.mulmod_calls", "count");
    ("core.classical_block.store_s", "s");
    ("core.naive.store_s", "s");
    ("gc.minor_words_per_symbol", "words");
    ("gc.major_collections", "count");
    ("machine.workspace.allocs", "count");
    ("machine.workspace.peak_bits", "bits");
    ("quantum.gates", "count");
    ("mathx.parallel.domains", "count");
    ("circuit.lower.to_basis_s", "s");
    ("circuit.lower.basis_gates", "count");
    ("circuit.circ.run_ns_per_gate", "ns");
    ("vm.qcode.compile_s", "s");
    ("vm.qcode.run_ns_per_gate", "ns");
    ("serve.protocol.parse_us", "us");
    ("serve.protocol.encode_us", "us");
    ("serve.server.admit_us", "us");
    ("serve.server.flush_ms", "ms");
    ("serve.server.flushes", "count");
    ("serve.server.batch_mean", "count");
    ("serve.queue.peak", "count");
    ("experiments.registry.document_ms", "ms");
    ("ratio.a1_over_stream", "ratio");
    ("ratio.a1a2_over_stream", "ratio");
    ("symbols_per_s", "1/s");
    ("gates_per_s", "1/s");
    ("failed_share", "ratio");
    ("trace.wall_s", "s");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64

(* Workload-specific sections of the traced run's layer report. *)
let report : (string * Experiments.Json.t) list ref = ref []

let set name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("Common.set: unknown metric " ^ name);
  Hashtbl.replace values name v

let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)

(* ------------------------------------------------------ correctness *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* ------------------------------------------------------------ runs *)

type ctx = { workload : string; seed : int; seconds : float; traced : bool }

(* Operation latencies of the rounds measured so far, and the input
   symbols the streaming layers consumed in them. *)
let latencies : float list ref = ref []
let symbols = ref 0

(* A timed step under a span (in the traced run); returns its result
   and its seconds. *)
let step ?tag name f = timed (fun () -> Spans.with_span ?tag name f)

(* One timed call into a layer: a span in the traced run, a latency
   sample in every run. *)
let call ?tag name f =
  let r, s = step ?tag name f in
  latencies := s :: !latencies;
  r

(* Set-up runs [reps] times and reports the median; the last inputs are
   kept.  Collections between repetitions keep the next one's heap
   comparable. *)
let setup ~reps f =
  let rec go i acc =
    Gc.compact ();
    let inputs, s = timed f in
    if i + 1 >= reps then (inputs, median (s :: acc)) else go (i + 1) (s :: acc)
  in
  go 0 []

(* A round runs the workload's calls once and returns the checks that
   are too slow to make on the clock; they run after it stops.

   Untraced: repeat the round until [seconds] of rounds have passed (at
   least once) and record the end-to-end metrics.  Returns the number
   of rounds. *)
let measure ctx round =
  latencies := [];
  let rec go walls =
    let verify, w = timed round in
    verify ();
    let walls = w :: walls in
    if sum walls < ctx.seconds then go walls else walls
  in
  let walls = go [] in
  let lat_ms = List.map (fun s -> s *. 1e3) !latencies in
  set "wall_s" (median walls);
  set "requests_per_s" (float_of_int (List.length lat_ms) /. sum walls);
  set "latency_p50_ms" (quantile 0.5 lat_ms);
  set "latency_p99_ms" (quantile 0.99 lat_ms);
  List.length walls

(* Traced: one round under the benchmark's spans, with an [Obs] counter
   sink installed when [sink] (the streaming workloads), and the
   round-level per-layer metrics. *)
let traced_round ?(sink = false) ctx round =
  latencies := [];
  symbols := 0;
  let obs = Obs.create () in
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let verify, w =
    timed (fun () ->
        Spans.with_span ~tag:ctx.workload ("round." ^ ctx.workload) (fun () ->
            if sink then Obs.Scope.with_sink obs round else round ()))
  in
  let minor = Gc.minor_words () -. minor0 in
  let gc1 = Gc.quick_stat () in
  verify ();
  set "trace.wall_s" w;
  set "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  if !symbols > 0 then begin
    set "gc.minor_words_per_symbol" (minor /. float_of_int !symbols);
    set "symbols_per_s" (float_of_int !symbols /. w)
  end;
  if sink then begin
    set "machine.workspace.allocs" (float_of_int (Obs.count obs "workspace.allocs"));
    set "quantum.gates" (float_of_int (Obs.count obs "quantum.gates"))
  end

(* ---------------------------------------------------------- output *)

let metric_json (name, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (get name) unit

let print_result ~traced =
  let names = if traced then per_layer else end_to_end in
  if traced then
    set "failed_share" (float_of_int !failed /. float_of_int (max 1 !attempted));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map metric_json names))

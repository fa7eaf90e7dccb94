(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads: classical-k8, classical-k7, quantum-k7, serve-mix (see
   BENCHMARK.json for why each exists).  Inputs come from the seed
   only.  With --trace 0 the workload's set-up runs three times and its
   round repeats for S seconds, untraced; the last stdout line carries
   the end-to-end metrics.  With --trace 1 one round runs under the
   benchmark's own spans, after isolated passes over the same inputs
   that attribute time to each layer; the trace is written as an
   [oqsc-trace] document and linted, a layer report sits beside it
   under .perfbench/, and the last stdout line carries the per-layer
   metrics.  Every workload checks its outputs; a failed check makes
   the exit code 1. *)

let workloads = [ "classical-k8"; "classical-k7"; "quantum-k7"; "serve-mix" ]

(* Each of these silently changes scheduling or the execution engine. *)
let pinned = [ "OQSC_PAR_THRESHOLD"; "OQSC_PAR_DOMAINS"; "OQSC_TUNE_PROFILE"; "OQSC_COMPILED" ]

let usage msg =
  Printf.eprintf
    "perfbench: %s\nusage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n" msg
    (String.concat "|" workloads);
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag -> go ((flag, v) :: acc) rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get flag conv =
    match List.assoc_opt flag args with
    | None -> usage ("missing " ^ flag)
    | Some v -> ( try conv v with _ -> usage (Printf.sprintf "bad value %S for %s" v flag))
  in
  List.iter
    (fun (f, _) ->
      if not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
        usage ("unknown flag " ^ f))
    args;
  let workload = get "--workload" (fun w -> if List.mem w workloads then w else raise Exit) in
  let seed = get "--seed" int_of_string in
  let positive s = if float_of_string s > 0.0 then float_of_string s else raise Exit in
  let seconds = get "--seconds" positive in
  let traced = get "--trace" (function "0" -> false | "1" -> true | _ -> raise Exit) in
  { Common.workload; seed; seconds; traced }

let out_dir = ".perfbench"

(* Write the benchmark's spans as an oqsc-trace document and lint it
   with the same checker as [oqsc trace-lint]. *)
let write_trace path =
  Experiments.Chrome_trace.write path (Spans.dump ());
  let text = In_channel.with_open_text path In_channel.input_all in
  let lint =
    match Experiments.Json.parse text with
    | Error e -> Error [ e ]
    | Ok doc -> Experiments.Chrome_trace.lint doc
  in
  match lint with
  | Ok st ->
      Common.check "trace has events" (st.events > 0);
      st.events
  | Error errs ->
      List.iter (Printf.eprintf "perfbench: trace-lint: %s\n%!") errs;
      Common.check "trace passes trace-lint" false;
      0

let config ctx ~rounds =
  let module J = Experiments.Json in
  [
    ("workload", J.Str ctx.Common.workload);
    ("seed", J.Int ctx.seed);
    ("seconds", J.Float ctx.seconds);
    ("trace", J.Bool ctx.traced);
    ("nproc", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("recommended_domains", J.Int (Mathx.Parallel.recommended_domains ()));
    ("rounds", J.Int rounds);
    ("latency_samples", J.Int (List.length !Common.latencies));
  ]

let layer_report ctx ~events path =
  let module J = Experiments.Json in
  let span (s : Spans.summary) =
    J.Obj
      [
        ("name", J.Str s.sname);
        ("count", J.Int s.count);
        ("total_s", J.Float s.total_s);
        ("self_s", J.Float s.self_s);
      ]
  in
  let summary = Spans.summarize () in
  let metric (n, _) = (n, J.Float (Common.get n)) in
  Printf.eprintf "%-32s %7s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (s : Spans.summary) ->
      Printf.eprintf "%-32s %7d %12.6f %12.6f\n" s.sname s.count s.total_s s.self_s)
    summary;
  List.iter
    (fun (section, v) ->
      match v with
      | J.List rows ->
          Printf.eprintf "%s:\n" section;
          List.iter (fun r -> Printf.eprintf "  %s\n" (Serve.Protocol.to_line r)) rows
      | _ -> ())
    (List.rev !Common.report);
  let doc =
    J.Obj
      ([
         ("kind", J.Str "perfbench-layers");
         ("config", J.Obj (config ctx ~rounds:1));
         ("trace_events", J.Int events);
         ("spans", J.List (List.map span summary));
         ("metrics", J.Obj (List.map metric Common.per_layer));
       ]
      @ List.rev !Common.report)
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string doc ^ "\n"))

let run_workload ctx ~generates ~setup ~round ~per_layer =
  if ctx.Common.traced then begin
    Spans.enable ();
    let inputs, s = Common.step ~tag:ctx.workload "setup" (fun () -> setup ctx.seed) in
    if generates then Common.set "lang.instance.generate_s" s;
    per_layer ctx inputs;
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let base = Printf.sprintf "%s/%s-seed%d" out_dir ctx.workload ctx.seed in
    let events = write_trace (base ^ ".trace.json") in
    layer_report ctx ~events (base ^ ".layers.json");
    1
  end
  else begin
    let inputs, setup_s = Common.setup ~reps:3 (fun () -> setup ctx.seed) in
    Common.set "setup_s" setup_s;
    let rounds = Common.measure ctx (round inputs) in
    Common.set "peak_rss_mb" (Common.peak_rss_mb ());
    rounds
  end

let () =
  let ctx = parse_args () in
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "perfbench: %s is set; only the default configuration is measured\n" v;
        exit 2
      end)
    pinned;
  Common.set "mathx.parallel.domains" (float_of_int (Mathx.Parallel.recommended_domains ()));
  let rounds =
    match ctx.workload with
    | "classical-k8" ->
        run_workload ctx ~generates:true ~setup:Classical.k8_jobs ~round:Classical.round
          ~per_layer:Classical.per_layer
    | "classical-k7" ->
        run_workload ctx ~generates:true ~setup:Classical.k7_jobs ~round:Classical.round
          ~per_layer:Classical.per_layer
    | "quantum-k7" ->
        run_workload ctx ~generates:true ~setup:Quantum_w.setup ~round:Quantum_w.round
          ~per_layer:Quantum_w.per_layer
    | _ ->
        run_workload ctx ~generates:false ~setup:Serve_w.setup ~round:Serve_w.round
          ~per_layer:Serve_w.per_layer
  in
  let module J = Experiments.Json in
  print_endline (Serve.Protocol.to_line (J.Obj [ ("config", J.Obj (config ctx ~rounds)) ]));
  Common.print_result ~traced:ctx.traced;
  if !Common.failed > 0 then exit 1

(* The serve workload: about 2,000 seeded requests pipelined from one
   thread into one in-process engine created with [Serve.Server.create ()]
   defaults.

   The mix is 1,800 quick [run] requests across the experiment
   catalogue (weighted so that no single experiment dominates the
   round; three seeds per experiment), 200 quick [sweep] shards (about
   10 %), and a [ping]/[stats]/[metrics] barrier after every 50
   requests.  Lines go through [Server.submit_line_routed], so every
   request is parsed by the protocol codec, admitted, batched and
   flushed exactly as a transport would drive it.  It is one client
   with no think time: a submit returns once its admission, and any
   flush it forces, is done, so the loop is closed at each flush.

   Latency runs from the submit call to the reply sink's delivery,
   timestamped here; the engine's own [stats] percentiles are not read.
   Every payload is compared byte for byte with a reference computed
   in set-up by [Experiments.Registry.document] or
   [Experiments.Space_audit.shard_to_json]. *)

open Mathx
module P = Serve.Protocol
module J = Experiments.Json

(* Run requests per round, by experiment id; ids missing here get 100. *)
let weights =
  [
    ("e1", 80); ("e2", 224); ("e3", 60); ("e4", 36); ("e5", 200); ("e6", 24);
    ("e7", 200); ("e8", 200); ("e9", 80); ("e10", 80); ("e11", 100); ("e12", 224);
    ("e13", 220); ("e14", 60); ("e15", 12);
  ]

let sweeps = 200
let sweep_shards = 5
let barrier_every = 50

type inputs = {
  lines : string array;
  requests : P.request array;
  index : (string, int) Hashtbl.t;  (** request id -> position *)
  expected : (string, string) Hashtbl.t;  (** payload key -> reference bytes *)
  document_s : float list;  (** per-reference [Registry.document] times *)
}

let payload_key = function
  | P.Run { exp; seed; _ } -> Some (Printf.sprintf "run/%s/%d" exp seed)
  | P.Sweep { index; count; seed; _ } -> Some (Printf.sprintf "sweep/%d/%d/%d" index count seed)
  | P.Ping | P.Stats | P.Metrics | P.Shutdown -> None

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let setup seed =
  let rng = Rng.create seed in
  let seeds () = Array.init 3 (fun _ -> Rng.int rng 1_000_000) in
  let work =
    List.concat_map
      (fun exp ->
        let count = Option.value ~default:100 (List.assoc_opt exp weights) in
        let s = seeds () in
        List.init count (fun i -> P.Run { exp; quick = true; seed = s.(i mod 3) }))
      Experiments.Registry.ids
    @
    let s = seeds () in
    List.init sweeps (fun i ->
        let index = i mod sweep_shards in
        P.Sweep { index; count = sweep_shards; quick = true; seed = s.(i mod 3) })
  in
  let work = Array.of_list work in
  shuffle rng work;
  let barriers = [| (1, P.Ping); (1, P.Stats); (P.metrics_version, P.Metrics) |] in
  let ops =
    List.concat
      (List.mapi
         (fun i op ->
           let req = (1, op) in
           if (i + 1) mod barrier_every = 0 then
             [ req; barriers.((i / barrier_every) mod Array.length barriers) ]
           else [ req ])
         (Array.to_list work))
  in
  let request i (v, op) = { P.v; id = Printf.sprintf "r%04d" i; op } in
  let requests = Array.of_list (List.mapi request ops) in
  let index = Hashtbl.create (Array.length requests) in
  Array.iteri (fun i (r : P.request) -> Hashtbl.replace index r.id i) requests;
  let expected = Hashtbl.create 64 and document_s = ref [] in
  Array.iter
    (fun (r : P.request) ->
      match payload_key r.op with
      | Some key when not (Hashtbl.mem expected key) ->
          let doc =
            match r.op with
            | P.Run { exp; quick; seed } ->
                let doc, s =
                  Common.timed (fun () -> Experiments.Registry.document ~quick ~seed exp)
                in
                document_s := s :: !document_s;
                doc
            | P.Sweep { index; count; quick; seed } ->
                let rows = Experiments.Space_audit.rows ~quick ~shard:(index, count) ~seed () in
                Experiments.Space_audit.shard_to_json ~shard:(index, count) ~seed ~quick rows
            | _ -> assert false
          in
          Hashtbl.replace expected key (J.to_string doc)
      | _ -> ())
    requests;
  let lines = Array.map (fun r -> P.to_line (P.request_to_json r)) requests in
  { lines; requests; index; expected; document_s = !document_s }

(* ---------------------------------------------------------- round *)

type submit = { mutable dur_s : float; mutable work_replies : int }

let submits : submit array ref = ref [||]
let final_flush = { dur_s = 0.0; work_replies = 0 }
let last_replies : P.reply option array ref = ref [||]
let queue_peak = ref 0

let reply_id = function P.Ok_reply { id; _ } -> Some id | P.Error_reply { id; _ } -> id

let verify inputs replies =
  Array.iteri
    (fun i (req : P.request) ->
      let ok =
        match (replies.(i), payload_key req.op) with
        | Some (P.Ok_reply { op; payload; _ }), Some key ->
            op = P.op_name req.op && J.to_string payload = Hashtbl.find inputs.expected key
        | Some (P.Ok_reply { op; payload; _ }), None -> (
            op = P.op_name req.op
            && match req.op with P.Ping -> payload = J.Obj [ ("pong", J.Bool true) ] | _ -> true)
        | Some (P.Error_reply { code; _ }), _ ->
            Printf.eprintf "perfbench: %s answered %s\n%!" req.id (P.code_to_string code);
            false
        | None, _ -> false
      in
      Common.check ("served reply to " ^ req.id) ok)
    inputs.requests

let round inputs () =
  let n = Array.length inputs.lines in
  let engine = Serve.Server.create () in
  let submitted = Array.make n 0.0 and replies = Array.make n None in
  let current = ref final_flush in
  let sink r =
    let t = Common.now () in
    match Option.bind (reply_id r) (Hashtbl.find_opt inputs.index) with
    | Some i when Option.is_none replies.(i) ->
        replies.(i) <- Some r;
        Common.latencies := (t -. submitted.(i)) :: !Common.latencies;
        if Option.is_some (payload_key inputs.requests.(i).op) then
          !current.work_replies <- !current.work_replies + 1
    | _ -> Common.check "reply matches exactly one outstanding request" false
  in
  let subs = Array.init n (fun _ -> { dur_s = 0.0; work_replies = 0 }) in
  Array.iteri
    (fun i line ->
      current := subs.(i);
      let t0 = Common.now () in
      submitted.(i) <- t0;
      ignore
        (Spans.with_span ~tag:inputs.requests.(i).id "serve.server.submit" (fun () ->
             Serve.Server.submit_line_routed engine ~reply:sink line));
      subs.(i).dur_s <- Common.now () -. t0)
    inputs.lines;
  final_flush.work_replies <- 0;
  current := final_flush;
  let (), s = Common.step "serve.server.flush" (fun () -> Serve.Server.flush_routed engine) in
  final_flush.dur_s <- s;
  (match Serve.Server.stats_payload engine with
  | J.Obj kv -> (
      match List.assoc_opt "queue_peak" kv with Some (J.Int q) -> queue_peak := q | _ -> ())
  | _ -> ());
  submits := subs;
  last_replies := replies;
  fun () -> verify inputs replies

(* ---------------------------------------------------------- traced *)

let per_layer ctx inputs =
  let n = Array.length inputs.lines in
  let parsed, parse_s =
    Common.step "serve.protocol.parse" (fun () -> Array.map P.parse_line inputs.lines)
  in
  Common.check "protocol codec round-trips every request"
    (Array.for_all2 (fun p r -> p = Ok r) parsed inputs.requests);
  Common.set "serve.protocol.parse_us" (parse_s /. float_of_int n *. 1e6);
  Common.traced_round ctx (round inputs);
  let replies = Array.to_list !last_replies |> List.filter_map Fun.id in
  let (), encode_s =
    Common.step "serve.protocol.encode" (fun () ->
        List.iter (fun r -> ignore (P.to_line (P.reply_to_json r))) replies)
  in
  Common.set "serve.protocol.encode_us" (encode_s /. float_of_int (List.length replies) *. 1e6);
  let all = final_flush :: Array.to_list !submits in
  let admits = List.filter (fun s -> s.work_replies = 0) (Array.to_list !submits) in
  let flushes = List.filter (fun s -> s.work_replies > 0) all in
  let mean f l = Common.sum (List.map f l) /. float_of_int (max 1 (List.length l)) in
  Common.set "serve.server.admit_us" (mean (fun s -> s.dur_s *. 1e6) admits);
  Common.set "serve.server.flush_ms" (mean (fun s -> s.dur_s *. 1e3) flushes);
  Common.set "serve.server.flushes" (float_of_int (List.length flushes));
  Common.set "serve.server.batch_mean" (mean (fun s -> float_of_int s.work_replies) flushes);
  Common.set "serve.queue.peak" (float_of_int !queue_peak);
  Common.set "experiments.registry.document_ms" (mean (fun s -> s *. 1e3) inputs.document_s)

(* The benchmark's own span recorder.

   Spans are recorded only around the benchmark's calls into a layer
   (never inside the program), kept in memory, and written at the end
   as an [oqsc-trace] document through [Experiments.Chrome_trace].  The
   program's own timeline ([Obs.Trace.start]) stays off: it would record
   one span per streamed bit in A3.  When recording is off,
   [with_span name f] is exactly [f ()]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, 0 at the top level *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let on = ref false
let t0 = ref 0L
let next_id = ref 1
let stack : span list ref = ref []
let finished : span list ref = ref []
let events : Obs.Trace.event list ref = ref []

let enable () =
  on := true;
  t0 := Obs.Trace.now_ns ()

let emit kind name ts args =
  events :=
    { Obs.Trace.kind; name; ts_ns = ts; domain = 0; args; flow = 0 } :: !events

let with_span ?(tag = "") name f =
  if not !on then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    let s = { id = !next_id; name; parent; start_ns = Obs.Trace.now_ns (); stop_ns = 0L } in
    incr next_id;
    emit Obs.Trace.Begin name s.start_ns
      Obs.Trace.[ ("span", Int s.id); ("parent", Int parent); ("tag", Str tag) ];
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop_ns <- Obs.Trace.now_ns ();
        stack := List.tl !stack;
        emit Obs.Trace.End name s.stop_ns [];
        finished := s :: !finished)
  end

let dump () = { Obs.Trace.t0_ns = !t0; events = List.rev !events; dropped = 0 }

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

type summary = { sname : string; count : int; total_s : float; self_s : float }

(* Per span name: count, total time and self time (total minus the time
   covered by direct children; spans nest on one thread, so children
   never overlap). *)
let summarize () =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent) in
      Hashtbl.replace child_s s.parent (prev +. duration s))
    !finished;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let c, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (c + 1, tot +. duration s, slf +. self))
    !finished;
  Hashtbl.fold
    (fun sname (count, total_s, self_s) acc -> { sname; count; total_s; self_s } :: acc)
    by_name []
  |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

(* The traced run's span recorder: the benchmark's own code opens a span
   around each call into a library layer. Spans stay in memory and are
   written out once, when the run ends; a per-pass table accumulates
   the same durations (and the layers' counts) by name. *)

(* A span is written as a JSON line: id, name, start and end (seconds
   since the epoch), parent ([-1] for a root) and trace (shared by every
   span of one unit of work). *)

let next = ref 0

(* Finished spans, already formatted as JSON lines: bytes, which the GC
   does not scan, however many spans a run keeps. *)
let recorded = Buffer.create 65536
let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace totals name
    (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))

(* [with_ ~trace ~parent name f] runs [f id] inside a span named [name];
   its duration (seconds) is added to [totals] under [name]. *)
let with_ ?(parent = -1) ~trace name f =
  let id = !next in
  incr next;
  let start = Util.now () in
  let v = f id in
  let stop = Util.now () in
  Printf.bprintf recorded
    "{\"id\": %d, \"name\": %S, \"start\": %.6f, \"end\": %.6f, \"parent\": %d, \"trace\": %d}\n"
    id name start stop parent trace;
  add name (stop -. start);
  v

let get_in t name = Option.value ~default:0. (Hashtbl.find_opt t name)

(* Take this pass's totals and start the next pass from zero. *)
let take () =
  let t = Hashtbl.copy totals in
  Hashtbl.reset totals;
  t

(* Add the totals of [t] into [into]. *)
let merge ~into t = Hashtbl.iter (fun k v -> Hashtbl.replace into k (v +. get_in into k)) t

let write path = Util.write_file path (Buffer.contents recorded)

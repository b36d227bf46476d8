(* The serve workload: `verifyio serve` in a child process, one client
   (this process) keeping one job outstanding. Each round flushes the
   verdict cache, submits every corpus trace once (a miss) and, at
   seeded positions, re-submits a trace already answered this round
   under a fresh job id (a hit). Hits are a fixed quarter of the jobs,
   so the median and p90 both fall among the misses. *)

module V = Verifyio
module Spool = Serve.Spool
module J = Vio_util.Json

let poll_s = 0.0001
let job_timeout_s = 60.

type job = {
  idx : int;  (** corpus trace *)
  hit : bool;  (** the schedule says the cache answers it *)
  lat : float;  (** submit to response read *)
  submit : float;
  wall_ms : int;  (** the response's [r_wall_ms] *)
  status_ok : bool;  (** status [done] and [r_cached] = [hit] *)
  cached : bool;
  verdicts : Check.verdict array option;
}

let model_names = List.map (fun (m : V.Model.t) -> m.V.Model.name) V.Model.builtin

let verdict_of_doc doc =
  let ( let* ) = Option.bind in
  let* v = J.member "verdict" doc in
  let* races = Option.bind (J.member "races" v) J.to_int in
  let* unmatched = Option.bind (J.member "unmatched" v) J.to_int in
  let* listed = Option.bind (J.member "race_pairs" v) J.to_list in
  let pairs =
    List.filter_map
      (fun p ->
        match J.to_list p with
        | Some (x :: y :: _) -> (
          match (J.to_int x, J.to_int y) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
        | _ -> None)
      listed
  in
  Some { Check.races; digest = Check.digest pairs; unmatched }

let verdicts_of (r : Spool.response) =
  try
    Some
      (Array.of_list
         (List.map
            (fun m -> Option.get (verdict_of_doc (List.assoc m r.Spool.r_verdicts)))
            model_names))
  with Not_found | Invalid_argument _ -> None

(* A round's schedule: every trace once in seeded order (a miss), and
   every [hit_every]-th trace once more, at a seeded position after its
   miss (a hit). The set of jobs is the same in every round and for
   every seed; the seed only orders them. *)
let hit_every = 3

let schedule st n =
  let misses = Util.shuffle st n in
  let pos = Array.make n 0 in
  Array.iteri (fun k i -> pos.(i) <- k) misses;
  (* [after.(k)]: the hits sent right after the miss in slot [k] *)
  let after = Array.make n [] in
  for i = 0 to n - 1 do
    if i mod hit_every = 0 then begin
      let k = pos.(i) + Random.State.int st (n - pos.(i)) in
      after.(k) <- (i, true) :: after.(k)
    end
  done;
  Array.concat
    (Array.to_list
       (Array.mapi (fun k i -> Array.of_list ((i, false) :: after.(k))) misses))

let counter = ref 0

let job ~traced sp (entries : Gen.entry array) (idx, hit) =
  incr counter;
  let id = Printf.sprintf "job%07d" !counter in
  let spec =
    {
      Spool.id;
      trace = entries.(idx).Gen.path;
      models = model_names;
      lenient = false;
      partial = false;
      budget = None;
      timeout_ms = None;
    }
  in
  let span name f =
    if traced then Span.with_ ~trace:!counter name (fun _ -> f ()) else f ()
  in
  let path = Spool.response_path sp ~id in
  let t0 = Util.now () in
  let rec wait () =
    if Util.now () -. t0 > job_timeout_s then None
    else if Sys.file_exists path then
      match Spool.read_response sp ~id with
      | Ok r -> Some r
      | Error _ -> Unix.sleepf poll_s; wait ()
    else (Unix.sleepf poll_s; wait ())
  in
  let body () =
    let submit, _ = Util.time (fun () -> span "spool.submit" (fun () -> Spool.submit sp spec)) in
    (submit, span "serve.wait" wait)
  in
  let submit, r = span "job" body in
  let lat = Util.now () -. t0 in
  match r with
  | None -> failwith (Printf.sprintf "no response to %s within %.0fs" id job_timeout_s)
  | Some r ->
    let cached = r.Spool.r_cached in
    {
      idx;
      hit;
      lat;
      submit;
      wall_ms = r.Spool.r_wall_ms;
      status_ok = r.Spool.r_status = "done" && cached = hit;
      cached;
      verdicts = verdicts_of r;
    }

let flush_cache sp =
  Array.iter
    (fun d -> Util.rm_rf (Filename.concat sp.Spool.cache d))
    (Sys.readdir sp.Spool.cache)

let round ~traced st sp entries =
  flush_cache sp;
  Array.map (job ~traced sp entries) (schedule st (Array.length entries))

(* Jobs fill fixed slots, so a round's latencies index like a pass's
   walls: slot [idx] for a trace's miss, [n + idx / hit_every] for its
   hit. *)
let slots n = n + ((n + hit_every - 1) / hit_every)
let slot n j = if j.hit then n + (j.idx / hit_every) else j.idx

let slot_names (entries : Gen.entry array) =
  let n = Array.length entries in
  Array.init (slots n) (fun s ->
      if s < n then entries.(s).Gen.name
      else entries.((s - n) * hit_every).Gen.name ^ "+hit")

(* What the client keeps of its responses, as [Inproc.tally] does: each
   distinct (trace, status and cache outcome right, verdicts) with how
   often it came. *)
type tally = (int * bool * Check.verdict array option, int) Hashtbl.t

(* Fold a round's jobs into [t]; their latencies in seconds, by slot. *)
let latencies (t : tally) n jobs =
  let lat = Float.Array.make (slots n) 0. in
  Array.iter
    (fun j ->
      Util.count t (j.idx, j.status_ok, j.verdicts);
      Float.Array.set lat (slot n j) j.lat)
    jobs;
  lat

(* Responses must equal the oracle's verdicts (and the paper's
   expectation) for the builtin models, with status [done] and a cache
   outcome that matches the schedule. Returns the failed job count. *)
let failures ?(corrupt = false) entries (t : tally) =
  let oracle = Check.oracle entries V.Model.builtin in
  if corrupt then oracle.(0).(0) <- Check.corrupt oracle.(0).(0);
  let bad (idx, status_ok, verdicts) =
    match verdicts with
    | None -> true
    | Some vs ->
      (not status_ok)
      || Array.exists Fun.id
           (Array.mapi
              (fun k v ->
                v <> oracle.(idx).(k)
                || not
                     (Check.meets_expectation entries.(idx)
                        (List.nth V.Model.builtin k) v))
              vs)
  in
  Hashtbl.fold (fun k n acc -> if bad k then acc + n else acc) t 0

(* The daemon child; [stop] drains it (SIGTERM) and waits for it. *)
let daemon = ref None

let stop_daemon () =
  match !daemon with
  | None -> ()
  | Some pid ->
    daemon := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)

let () = at_exit stop_daemon

let start ~work ~cli entries_dir =
  let root = Filename.concat work "spool" in
  Util.rm_rf entries_dir;
  Util.run_child Sys.executable_name [ "gen"; "serve"; entries_dir ];
  let entries = Gen.read_manifest entries_dir in
  Util.rm_rf root;
  let sp = Spool.layout root in
  let log =
    Unix.openfile (Filename.concat work "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  daemon :=
    Some
      (Unix.create_process cli
         [| cli; "serve"; "--root"; root; "--domains"; "1"; "--poll-ms"; "1"; "--quiet" |]
         Unix.stdin log log);
  Unix.close log;
  (* The daemon sweeps staging files out of incoming/ before it opens
     its journal: submit only once the journal exists. *)
  let t0 = Util.now () in
  while not (Sys.file_exists sp.Spool.journal) do
    if Util.now () -. t0 > job_timeout_s then failwith "serve daemon did not start";
    Unix.sleepf poll_s
  done;
  (entries, sp)

let selftest ~work ~cli =
  let entries, sp = start ~work ~cli (Filename.concat work "inputs") in
  let entries = Array.sub entries 0 6 in
  let t = Hashtbl.create 16 in
  ignore (latencies t (Array.length entries) (round ~traced:false (Util.rng ~seed:1 0) sp entries));
  stop_daemon ();
  (failures entries t, failures ~corrupt:true entries t)

(* The traced run's per-layer values of one round. *)
let per_round jobs =
  let js = Array.to_list jobs in
  let medf f js = Util.median (Array.of_list (List.map f js)) in
  let hit_j, miss_j = List.partition (fun j -> j.hit) js in
  let cached = List.length (List.filter (fun j -> j.cached) js) in
  [
    ("spool.submit_ms", medf (fun j -> Util.ms j.submit) js);
    ("serve.job_wall_ms", medf (fun j -> float_of_int j.wall_ms) js);
    ("serve.queue_ms", medf (fun j -> Util.ms j.lat -. float_of_int j.wall_ms) js);
    ("cache.hit_ratio", Util.ratio (float_of_int cached) (float_of_int (List.length js)));
    ("serve.hit_latency_ms", medf (fun j -> Util.ms j.lat) hit_j);
    ("serve.miss_latency_ms", medf (fun j -> Util.ms j.lat) miss_j);
  ]

(* The daemon's layers run in its own process, out of the client's
   reach, so a traced run also replays the misses here: every corpus
   trace through [Layers.chain] under the builtin models, the work the
   daemon does on a miss, each layer call inside a span. The replay's
   verdicts join the tally and meet the responses' reference; its status
   is right when the lattice invariant holds. *)
let replay ~round st (t : tally) (entries : Gen.entry array) =
  Array.iter
    (fun i ->
      let e = entries.(i) and trace = (round * 1_000_000) + i in
      Layers.codec_decode ~trace ~parent:(-1) e;
      match
        Span.with_ ~trace "unit" (fun uid ->
            Layers.chain ~trace ~parent:uid e V.Model.builtin)
      with
      | r ->
        Util.count t
          (i, Check.lattice_violations r.Layers.races = 0, Some r.Layers.verdicts)
      | exception _ -> Util.count t (i, false, None))
    (Util.shuffle st (Array.length entries))

let run ~seed ~seconds ~trace ~work ~cli =
  let st = Util.rng ~seed 2 in
  let once () =
    let entries, sp = start ~work ~cli (Filename.concat work "inputs") in
    ignore (round ~traced:false st sp entries);
    (entries, sp)
  in
  let walls = ref [] and last = ref None in
  for _ = 1 to Inproc.setups do
    stop_daemon ();
    let w, r = Util.time once in
    walls := w :: !walls;
    last := Some r
  done;
  let entries, sp = Option.get !last in
  let n = Array.length entries in
  let walls = Array.of_list (List.rev !walls) in
  Util.note "# setup walls (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (Array.to_list walls)));
  Util.note "# live heap after setup: %.2f MB" (Util.live_heap_mb ());
  let setup_s = Util.median walls in
  let t = Hashtbl.create 256 in
  let sums = Hashtbl.create 16 and replay_sums = Hashtbl.create 64 in
  let t_start = Util.now () in
  let more () = Util.now () -. t_start < seconds in
  let rec loop k acc =
    let u = latencies t n (round ~traced:false st sp entries) in
    let tr =
      if not trace then None
      else begin
        let jobs = round ~traced:true st sp entries in
        Span.merge ~into:sums (Span.take ());
        replay ~round:k st t entries;
        let layers = Span.take () in
        Span.merge ~into:replay_sums layers;
        Some (latencies t n jobs, per_round jobs @ Report.layer_values layers)
      end
    in
    let acc = (u, tr) :: acc in
    if more () then loop (k + 1) acc else List.rev acc
  in
  let rounds = loop 0 [] in
  let peak =
    match !daemon with Some pid -> Util.peak_rss_mb ~pid () | None -> 0.
  in
  stop_daemon ();
  Util.note "# live heap after the timed region: %.2f MB" (Util.live_heap_mb ());
  let untraced = List.map fst rounds in
  let traced = List.filter_map snd rounds in
  let failed = failures entries t in
  let attempted = Hashtbl.fold (fun _ c acc -> acc + c) t 0 in
  Util.note "# host: %s"
    (J.to_string ~indent:0
       (Util.host_json ~work
          ~extra:
            [
              ("spool_fs", J.Str (Util.fs_of sp.Spool.root));
              ("daemon", J.Str "verifyio serve --domains 1 --poll-ms 1 --quiet");
            ]));
  Util.note "# rounds: %d of %d jobs (%d hits, %d misses each)" (List.length untraced)
    (slots n) (slots n - n) n;
  if not trace then
    Report.print_end_to_end ~work ~correct:(failed = 0) ~attempted ~failed ~setup_s ~peak
      ~verdicts:(slots n * List.length model_names)
      ~units:(slot_names entries) untraced
  else begin
    Span.write (Filename.concat work "spans.jsonl");
    let median_round rs = Util.median (Array.of_list (List.map Report.pass_wall rs)) in
    let overhead = median_round (List.map fst traced) /. median_round untraced in
    let values =
      Report.median_of_passes (List.map snd traced)
      @ [ ("trace.overhead_ratio", overhead) ]
    in
    Util.note "# span shares of traced job time: spool.submit %.1f%%, serve.wait %.1f%%"
      (100. *. Util.ratio (Span.get_in sums "spool.submit") (Span.get_in sums "job"))
      (100. *. Util.ratio (Span.get_in sums "serve.wait") (Span.get_in sums "job"));
    let p50 rs = Util.ms (Util.median (Float.Array.map_to_array Fun.id (Float.Array.concat rs))) in
    Util.note
      "# span accounting: traced job p50 %.3f ms / trace.overhead_ratio %.4f = %.3f ms; untraced job p50 %.3f ms"
      (p50 (List.map fst traced)) overhead
      (p50 (List.map fst traced) /. overhead)
      (p50 untraced);
    Util.note "# replayed misses, in this process:";
    Shares.print ~dominant:"estore" replay_sums;
    Report.print_per_layer ~correct:(failed = 0) ~attempted ~failed values
  end

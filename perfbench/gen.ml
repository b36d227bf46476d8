(* Input generation. Runs in its own child process ([perfbench gen]),
   so the measuring process never holds a [Record.t] list: it only sees
   the trace files and the manifest written here. *)

module H = Workloads.Harness
module Codec = Recorder.Codec

(* One input trace, as the manifest records it. [extra] carries the
   paper's expectation flags of a corpus trace. *)
type entry = {
  path : string;
  name : string;
  nranks : int;
  records : int;
  sha : string;
  extra : string;
}

let manifest dir = Filename.concat dir "manifest.tsv"

let write_manifest dir entries =
  Util.write_file (manifest dir)
    (String.concat ""
       (List.map
          (fun e ->
            Printf.sprintf "%s\t%s\t%d\t%d\t%s\t%s\n" e.path e.name e.nranks
              e.records e.sha e.extra)
          entries))

let read_manifest dir =
  List.map
    (fun l ->
      match String.split_on_char '\t' l with
      | [ path; name; nranks; records; sha; extra ] ->
        {
          path;
          name;
          nranks = int_of_string nranks;
          records = int_of_string records;
          sha;
          extra;
        }
      | _ -> failwith ("bad manifest line: " ^ l))
    (Util.read_lines (manifest dir))
  |> Array.of_list

let write_trace ~dir ~name ~format ~nranks records =
  let ext = match format with Codec.Text -> "trace" | Codec.Binary -> "vtb" in
  let path = Util.abs (Filename.concat dir (name ^ "." ^ ext)) in
  Util.write_file path (Codec.encode_format format ~nranks records);
  {
    path;
    name;
    nranks;
    records = List.length records;
    sha = Vio_util.Sha256.digest_file path;
    extra = "";
  }

(* ---- corpus: the paper's 91 executions, as text traces ---- *)

let expectation_string (e : H.expectation) =
  let b x = if x then "1" else "0" in
  b e.H.exp_posix ^ b e.H.exp_relaxed ^ b e.H.exp_unmatched

let expectation_of_string s =
  {
    H.exp_posix = s.[0] = '1';
    exp_relaxed = s.[1] = '1';
    exp_unmatched = s.[2] = '1';
  }

let corpus dir =
  List.mapi
    (fun i (w : H.t) ->
      let e =
        write_trace ~dir
          ~name:(Printf.sprintf "%02d_%s" i w.H.name)
          ~format:Codec.Text ~nranks:w.H.nranks (H.run w)
      in
      { e with extra = expectation_string w.H.expect })
    Workloads.Registry.all

(* ---- wide: Extended-profile viogen programs at high rank counts ---- *)

(* Fixed programs, so the committed reference digest covers them; the
   run seed only permutes the verification order. *)
let wide_seed = 10
let wide_steps = 120
let wide_ranks = [ 64; 96; 128 ]

let wide_program nranks =
  Viogen.Workload.generate ~nranks ~max_steps:wide_steps
    ~profile:Viogen.Workload.Extended ~seed:wide_seed ()

let wide dir =
  List.map
    (fun nranks ->
      write_trace ~dir
        ~name:(Printf.sprintf "wide_%d" nranks)
        ~format:Codec.Binary ~nranks
        (Viogen.Workload.run (wide_program nranks)))
    wide_ranks

let run ~workload dir =
  Util.mkdir_p dir;
  let entries =
    match workload with
    | "serve" -> corpus dir
    | "wide" -> wide dir
    | w -> failwith ("gen: unknown workload " ^ w)
  in
  write_manifest dir entries

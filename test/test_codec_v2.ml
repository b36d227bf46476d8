(* Binary trace codec (v2) edge cases against the normative wire spec in
   docs/format.md: footer truncation, CRC corruption, version mismatch,
   empty rank segments, and the cross-format round-trip property
   (text -> binary -> estore equals text -> estore). Every failure
   assertion checks that the decoder's message cites the spec section
   that defines the violated rule. *)

module R = Recorder.Record
module Codec = Recorder.Codec
module Diag = Recorder.Diagnostic
module E = Verifyio.Estore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk rank seq layer func args ret path =
  {
    R.rank;
    seq;
    tstart = (rank * 10_000) + (seq * 2);
    tend = (rank * 10_000) + (seq * 2) + 1;
    layer;
    func;
    args = Array.of_list args;
    ret;
    call_path = path;
  }

(* Three ranks, rank 1 deliberately silent — its segment is present in
   the wire image with a zero record count (format.md §3.3). *)
let sample =
  [
    mk 0 0 R.Posix "open" [ "/data"; "O_RDWR" ] "3" [];
    mk 0 1 R.Posix "pwrite" [ "3"; "8"; "0" ] "8"
      [ (R.Hdf5, "H5Dwrite"); (R.Mpiio, "MPI_File_write_at") ];
    mk 0 2 R.Posix "close" [ "3" ] "0" [];
    mk 2 0 R.Mpi "MPI_Barrier" [ "comm0" ] "0" [];
    mk 2 1 R.Posix "pread" [ "3"; "8"; "0" ] "8" [];
  ]

let encoded () = Codec.encode_binary ~nranks:3 sample

let reason_of = function
  | Codec.Malformed { reason; _ } -> reason
  | e -> raise e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_cites what section reason =
  check_bool
    (Printf.sprintf "%s cites %s: %s" what section reason)
    true
    (contains reason ("format.md " ^ section))

(* ------------------------------------------------------------------ *)
(* Round trip and structure                                            *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let nranks, decoded = Codec.decode (encoded ()) in
  check_int "nranks" 3 nranks;
  check_bool "records identical" true (decoded = sample)

let test_detects_formats () =
  check_bool "binary detected" true (Codec.detect (encoded ()) = Codec.Binary);
  check_bool "text detected" true
    (Codec.detect (Codec.encode ~nranks:3 sample) = Codec.Text)

let test_empty_rank_segment () =
  (* Rank 1 contributes nothing; the segment must survive the round trip
     and the decoder must not attribute records to it. *)
  let nranks, decoded = Codec.decode (encoded ()) in
  check_int "nranks preserved" 3 nranks;
  check_int "rank 1 has no records" 0
    (List.length (List.filter (fun (r : R.t) -> r.R.rank = 1) decoded));
  (* A trace that is nothing but empty segments is also valid. *)
  let nranks, decoded = Codec.decode (Codec.encode_binary ~nranks:4 []) in
  check_int "all-empty nranks" 4 nranks;
  check_int "all-empty records" 0 (List.length decoded)

(* ------------------------------------------------------------------ *)
(* Corruption: every strict error must cite its spec section            *)
(* ------------------------------------------------------------------ *)

let test_truncated_footer_strict () =
  let s = encoded () in
  let cut = String.sub s 0 (String.length s - 10) in
  match Codec.decode cut with
  | _ -> Alcotest.fail "truncated footer accepted"
  | exception e -> check_cites "truncated footer" "\xc2\xa73.5" (reason_of e)

let test_truncated_footer_lenient () =
  (* The footer skeleton is gone but header, pool and segments are intact
     and self-delimiting: sequential salvage must recover every record,
     flagged by a Bad_header diagnostic. *)
  let s = encoded () in
  let cut = String.sub s 0 (String.length s - 10) in
  let d = Codec.decode_ext ~mode:Diag.Lenient cut in
  check_int "all records salvaged" (List.length sample)
    (List.length d.Codec.records);
  check_bool "records intact" true (d.Codec.records = sample);
  check_bool "salvage flagged" true
    (Diag.count_class Diag.Bad_header d.Codec.diagnostics >= 1)

let test_corrupt_crc_strict () =
  (* Flip a bit of the stored CRC-32 itself (format.md §3.5 places it 20
     bytes from the end: before the 8-byte locator and 8-byte trailer
     magic). The body is untouched, so the decode must fail only on the
     checksum comparison. *)
  let s = Bytes.of_string (encoded ()) in
  let pos = Bytes.length s - 20 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  match Codec.decode (Bytes.to_string s) with
  | _ -> Alcotest.fail "corrupt CRC accepted"
  | exception e ->
    let reason = reason_of e in
    check_bool ("mentions CRC: " ^ reason) true (contains reason "CRC-32");
    check_cites "corrupt CRC" "\xc2\xa73.5" reason

let test_corrupt_crc_lenient () =
  (* Lenient keeps the (structurally valid) records and reports the
     checksum mismatch as a diagnostic instead of raising. *)
  let s = Bytes.of_string (encoded ()) in
  let pos = Bytes.length s - 20 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  let d = Codec.decode_ext ~mode:Diag.Lenient (Bytes.to_string s) in
  check_bool "records kept" true (d.Codec.records = sample);
  check_bool "mismatch reported" true
    (List.exists
       (fun (dg : Diag.t) -> contains dg.Diag.reason "CRC-32")
       d.Codec.diagnostics)

let test_unknown_version_strict () =
  let s = Bytes.of_string (encoded ()) in
  Bytes.set s 8 '\x07' (* version byte follows the 8-byte magic *);
  match Codec.decode (Bytes.to_string s) with
  | _ -> Alcotest.fail "unknown version accepted"
  | exception e ->
    let reason = reason_of e in
    check_bool ("names version 7: " ^ reason) true (contains reason "7");
    check_cites "unknown version" "\xc2\xa71.2" reason

let test_unknown_version_lenient () =
  (* No decoder for the version exists, so even lenient mode can salvage
     nothing — but it must report the failure rather than raise. *)
  let s = Bytes.of_string (encoded ()) in
  Bytes.set s 8 '\x07';
  let d = Codec.decode_ext ~mode:Diag.Lenient (Bytes.to_string s) in
  check_int "nothing salvaged" 0 (List.length d.Codec.records);
  check_bool "failure reported" true
    (Diag.count_class Diag.Bad_header d.Codec.diagnostics >= 1)

let test_truncated_mid_segment_strict () =
  (* Cut deep enough to lose record bytes, not just the footer: strict
     must refuse with a positioned error, never return partial data. *)
  let s = encoded () in
  let cut = String.sub s 0 (String.length s * 2 / 3) in
  match Codec.decode cut with
  | _ -> Alcotest.fail "truncated body accepted"
  | exception Codec.Malformed _ -> ()
  | exception e -> raise e

(* ------------------------------------------------------------------ *)
(* File path: auto-detection and the streaming fold                    *)
(* ------------------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "codec_v2" ".trace" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_fold_binary_file () =
  with_temp_file (encoded ()) (fun path ->
      check_bool "file detected as binary" true
        (Codec.detect_file path = Codec.Binary);
      let folded = Codec.fold_records path ~init:[] ~f:(fun acc r -> r :: acc) in
      check_int "folded nranks" 3 folded.Codec.f_nranks;
      check_bool "folded records identical" true
        (List.rev folded.Codec.f_value = sample))

(* ------------------------------------------------------------------ *)
(* Property: text -> binary -> estore equals text -> estore             *)
(* ------------------------------------------------------------------ *)

let estores_equal a b =
  E.nranks a = E.nranks b
  && E.length a = E.length b
  && (let n = E.length a in
      let rec go i = i >= n || (E.record a i = E.record b i && go (i + 1)) in
      go 0)

let prop_cross_format_estore =
  let layer_gen = QCheck2.Gen.oneofl R.all_layers in
  let string_gen =
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '%'; '/'; ':'; ','; '\t' ])
        (int_range 0 8))
  in
  let record_gen =
    QCheck2.Gen.(
      let* rank = int_range 0 3 in
      let* seq = int_range 0 50 in
      let* layer = layer_gen in
      let* func = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
      let* args = list_size (int_range 0 5) string_gen in
      let* ret = string_gen in
      let* path =
        list_size (int_range 0 3)
          (pair layer_gen (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
      in
      return (mk rank seq layer func args ret path))
  in
  QCheck2.Test.make
    ~name:"estore from binary file equals estore from text file" ~count:150
    QCheck2.Gen.(list_size (int_range 0 25) record_gen)
    (fun records ->
      let dedup =
        List.sort_uniq
          (fun (a : R.t) (b : R.t) -> compare (a.rank, a.seq) (b.rank, b.seq))
          records
      in
      (* Lenient: random function names are not in the layer signature
         tables, and the property is exactly that both wire formats make
         the store-level keep/skip decisions identically. *)
      let via fmt =
        with_temp_file
          (Codec.encode_format fmt ~nranks:4 dedup)
          (fun path -> E.of_file ~mode:Diag.Lenient path)
      in
      estores_equal (via Codec.Text) (via Codec.Binary))

(* The paper's 91 library executions, each written in both wire formats
   and verified through the fused file path, give identical verdicts
   under every builtin model. *)
let test_corpus_verdicts_across_formats () =
  let module P = Verifyio.Pipeline in
  let verdicts path =
    let p = P.prepare_file path in
    List.map
      (fun model ->
        let o = P.verify_prepared ~model p in
        ( List.map
            (fun (r : Verifyio.Verify.race) ->
              (r.Verifyio.Verify.rx, r.Verifyio.Verify.ry,
               r.Verifyio.Verify.confidence))
            o.P.races,
          List.length o.P.unmatched,
          o.P.conflicts ))
      Verifyio.Model.builtin
  in
  List.iter
    (fun (w : Workloads.Harness.t) ->
      let records = Workloads.Harness.run w in
      let via fmt =
        with_temp_file
          (Codec.encode_format fmt ~nranks:w.Workloads.Harness.nranks records)
          verdicts
      in
      check_bool
        (w.Workloads.Harness.name ^ ": text verdicts = binary verdicts")
        true
        (via Codec.Text = via Codec.Binary))
    Workloads.Registry.all

let () =
  Alcotest.run "codec_v2"
    [
      ( "round trip",
        [
          Alcotest.test_case "binary round trip" `Quick test_round_trip;
          Alcotest.test_case "format detection" `Quick test_detects_formats;
          Alcotest.test_case "empty rank segment" `Quick
            test_empty_rank_segment;
          Alcotest.test_case "streaming file fold" `Quick test_fold_binary_file;
          Alcotest.test_case "corpus verdicts across formats" `Quick
            test_corpus_verdicts_across_formats;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated footer (strict)" `Quick
            test_truncated_footer_strict;
          Alcotest.test_case "truncated footer (lenient salvage)" `Quick
            test_truncated_footer_lenient;
          Alcotest.test_case "corrupt CRC (strict)" `Quick
            test_corrupt_crc_strict;
          Alcotest.test_case "corrupt CRC (lenient)" `Quick
            test_corrupt_crc_lenient;
          Alcotest.test_case "unknown version (strict)" `Quick
            test_unknown_version_strict;
          Alcotest.test_case "unknown version (lenient)" `Quick
            test_unknown_version_lenient;
          Alcotest.test_case "truncated mid-segment (strict)" `Quick
            test_truncated_mid_segment_strict;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_cross_format_estore ] );
    ]

(* Tests for the bounded-memory layer: the spill-segment codec (QCheck
   round-trip and corruption properties), spilling Bqueues under domains,
   budget planning, run-failure exit codes, and the out-of-core Dataset
   cache (including the isosurface cached grid's bit-for-bit match with
   the analytic field). *)

module A = Alcotest
open Datacutter

(* ------------------------------------------------------------------ *)
(* Spill-segment codec properties.                                    *)
(* ------------------------------------------------------------------ *)

(* Payloads are arbitrary binary strings, NUL bytes included. *)
let gen_payloads = QCheck.(small_list (string_gen Gen.char))

let prop_roundtrip =
  QCheck.Test.make ~name:"segment codec round-trips" ~count:300 gen_payloads
    (fun ps -> Spill.decode_segment (Spill.encode_segment ps) = ps)

(* Any strict prefix of a segment must be rejected cleanly: [Corrupt],
   never a crash and never a partial item list. *)
let prop_truncate =
  QCheck.Test.make ~name:"truncated segment raises Corrupt" ~count:300
    QCheck.(pair gen_payloads small_nat)
    (fun (ps, k) ->
      let seg = Spill.encode_segment ps in
      let cut = k mod Bytes.length seg in
      match Spill.decode_segment (Bytes.sub seg 0 cut) with
      | _ -> false
      | exception Spill.Corrupt _ -> true
      | exception _ -> false)

(* Any single flipped byte — payload, header or checksum — must be
   caught by the checksum-before-parse discipline. *)
let prop_corrupt_byte =
  QCheck.Test.make ~name:"flipped byte raises Corrupt" ~count:300
    QCheck.(triple gen_payloads small_nat small_nat)
    (fun (ps, pos, mask) ->
      let seg = Spill.encode_segment ps in
      let pos = pos mod Bytes.length seg in
      let mask = 1 + (mask mod 255) in
      Bytes.set seg pos
        (Char.chr (Char.code (Bytes.get seg pos) lxor mask));
      match Spill.decode_segment seg with
      | _ -> false
      | exception Spill.Corrupt _ -> true
      | exception _ -> false)

let codec_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_truncate; prop_corrupt_byte ]

(* ------------------------------------------------------------------ *)
(* Segment files on disk.                                             *)
(* ------------------------------------------------------------------ *)

let test_segment_file_roundtrip () =
  let dir = Spill.create_dir () in
  let payloads = [ "alpha"; ""; String.make 5000 '\x00'; "omega" ] in
  let path, bytes = Spill.write_segment dir payloads in
  A.(check bool) "segment written" true (Sys.file_exists path);
  A.(check bool) "nonempty" true (bytes >= 24);
  A.(check (list string)) "file round-trips" payloads (Spill.read_segment path);
  A.(check bool) "consumed segment deleted" false (Sys.file_exists path);
  Spill.remove_dir dir;
  A.(check bool) "dir removed" false (Sys.file_exists (Spill.dir_path dir))

let test_segment_file_truncated () =
  let dir = Spill.create_dir () in
  let path, bytes = Spill.write_segment dir [ "one"; "two"; "three" ] in
  Unix.truncate path (bytes / 2);
  (match Spill.read_segment path with
  | _ -> A.fail "truncated segment decoded"
  | exception Spill.Corrupt _ -> ());
  Spill.remove_dir dir;
  A.(check bool) "dir removed" false (Sys.file_exists (Spill.dir_path dir))

(* ------------------------------------------------------------------ *)
(* Spilling Bqueue.                                                   *)
(* ------------------------------------------------------------------ *)

let test_create_validates_capacity () =
  let stop = Atomic.make false in
  List.iter
    (fun cap ->
      match Bqueue.create ~stop cap with
      | _ -> A.fail "capacity accepted"
      | exception Invalid_argument msg ->
          A.(check bool) "descriptive message" true
            (Astring.String.is_infix ~affix:"capacity" msg))
    [ 0; -1 ];
  let dir = Spill.create_dir () in
  (match
     Bqueue.spill_config ~budget:(-1) ~dir ~encode:Fun.id ~decode:Fun.id
   with
  | _ -> A.fail "negative budget accepted"
  | exception Invalid_argument msg ->
      A.(check bool) "budget message" true
        (Astring.String.is_infix ~affix:"budget" msg));
  Spill.remove_dir dir

let spill_queue ~budget =
  let stop = Atomic.make false in
  let dir = Spill.create_dir () in
  let spill =
    Bqueue.spill_config ~budget ~dir ~encode:Fun.id ~decode:Fun.id
  in
  (Bqueue.create ~cost:String.length ~spill ~stop 8, dir)

let test_spill_fifo_order () =
  let q, dir = spill_queue ~budget:64 in
  let items = List.init 500 (fun i -> Printf.sprintf "item-%06d" i) in
  List.iter (fun s -> ignore (Bqueue.push q s : float)) items;
  let st = Bqueue.stats q in
  A.(check bool) "spilled to disk" true (st.Bqueue.st_disk_items > 0);
  A.(check bool) "spilled bytes counted" true (st.Bqueue.st_spilled_bytes > 0);
  A.(check bool) "segments counted" true (st.Bqueue.st_spill_segments > 0);
  A.(check int) "logical length" 500 (Bqueue.length q);
  Bqueue.close q;
  let rec drain acc =
    match Bqueue.pop q with
    | s, _wait -> drain (s :: acc)
    | exception Bqueue.Closed -> List.rev acc
  in
  A.(check (list string)) "FIFO across spill, drained after close" items
    (drain []);
  let st = Bqueue.stats q in
  A.(check int) "disk drained" 0 st.Bqueue.st_disk_items;
  A.(check int) "memory drained" 0 st.Bqueue.st_mem_bytes;
  Spill.remove_dir dir

(* Producer domain spills heavily and closes while segments are still on
   disk; a consumer domain must receive every item, in order, and only
   then see [Closed]. *)
let test_close_while_spilled_domains () =
  let q, dir = spill_queue ~budget:64 in
  let n = 2000 in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop acc =
          match Bqueue.pop q with
          | s, _wait -> loop (s :: acc)
          | exception Bqueue.Closed -> List.rev acc
        in
        loop [])
  in
  let items = List.init n (fun i -> Printf.sprintf "payload-%08d" i) in
  List.iter (fun s -> ignore (Bqueue.push q s : float)) items;
  Bqueue.close q;
  let got = Domain.join consumer in
  A.(check int) "every item delivered" n (List.length got);
  A.(check (list string)) "order preserved" items got;
  let st = Bqueue.stats q in
  A.(check int) "no disk leftovers" 0 st.Bqueue.st_disk_items;
  A.(check bool) "high water bounded" true
    (st.Bqueue.st_mem_high_water <= 64 + (2 * 4096) + 16);
  Spill.remove_dir dir

(* ------------------------------------------------------------------ *)
(* Budget planning and exit codes.                                    *)
(* ------------------------------------------------------------------ *)

let test_plan_queue_budgets () =
  let b =
    Engine.plan_queue_budgets ~total:9000
      ~item_bytes:[| 800.0; 100.0; 1.0 |]
      ~widths:[| 1; 1; 1 |]
  in
  A.(check int) "source has no input queue" 0 b.(0);
  A.(check bool) "heavier stream gets more" true (b.(1) > b.(2));
  A.(check bool) "positive budgets" true (b.(1) > 0 && b.(2) > 0);
  A.(check bool) "within total" true (b.(1) + b.(2) <= 9000)

let test_exit_codes () =
  let open Supervisor in
  A.(check int) "stall" 3
    (exit_code_of (Stalled { after_s = 1.0; report = [] }));
  A.(check int) "stage dead" 4
    (exit_code_of (Stage_dead { stage = 1; stage_name = "f"; error = "boom" }));
  A.(check int) "protocol error" 5
    (exit_code_of
       (Stage_dead
          { stage = 1; stage_name = "f"; error = "worker protocol error: eof" }));
  A.(check int) "invalid topology" 6 (exit_code_of (Invalid_topology "x"));
  A.(check int) "unsupported" 7 (exit_code_of (Unsupported "x"));
  A.(check int) "setup failed" 9 (exit_code_of (Setup_failed "x"))

let rm_rf dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with _ -> ())
        entries;
      (try Unix.rmdir dir with _ -> ())
  | exception _ -> ()

(* ------------------------------------------------------------------ *)
(* Stale spill-dir sweep.                                             *)
(* ------------------------------------------------------------------ *)

(* A SIGKILLed run strands its spill dir; the sweep must reclaim dirs
   whose embedded pid is dead while leaving live-pid dirs and
   unrelated names alone. *)
let test_sweep_stale () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgppc-test-sweep-%d" (Unix.getpid ()))
  in
  Unix.mkdir root 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e ->
          let p = Filename.concat root e in
          if Sys.is_directory p then rm_rf p)
        (try Sys.readdir root with _ -> [||]);
      rm_rf root)
    (fun () ->
      (* pid far above any real pid_max: demonstrably dead *)
      let dead = Filename.concat root "cgppc-spill-999999999-0" in
      Unix.mkdir dead 0o700;
      let oc = open_out_bin (Filename.concat dead "seg-000000000.spill") in
      output_string oc "stranded";
      close_out oc;
      let alive =
        Filename.concat root
          (Printf.sprintf "cgppc-spill-%d-3" (Unix.getpid ()))
      in
      Unix.mkdir alive 0o700;
      let unrelated = Filename.concat root "cgppc-datasets" in
      Unix.mkdir unrelated 0o700;
      let removed = Spill.sweep_stale ~root () in
      A.(check int) "exactly the dead-pid dir swept" 1 removed;
      A.(check bool) "dead-pid dir gone" false (Sys.file_exists dead);
      A.(check bool) "live-pid dir kept" true (Sys.file_exists alive);
      A.(check bool) "unrelated dir kept" true (Sys.file_exists unrelated);
      A.(check int) "second sweep finds nothing" 0 (Spill.sweep_stale ~root ()))

(* ------------------------------------------------------------------ *)
(* Out-of-core Dataset cache.                                         *)
(* ------------------------------------------------------------------ *)

let ds_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cgppc-test-ds-%d" (Unix.getpid ()))

let gen_record i = Bytes.of_string (Printf.sprintf "%015d\n" i)

let test_dataset_write_once () =
  let calls = ref 0 in
  let gen i = incr calls; gen_record i in
  let ds =
    Apps.Dataset.ensure ~dir:ds_dir ~name:"write-once" ~items:100
      ~item_bytes:16 ~gen ()
  in
  A.(check int) "generated every record once" 100 !calls;
  A.(check int) "size" 1600 (Apps.Dataset.size_bytes ds);
  let _again =
    Apps.Dataset.ensure ~dir:ds_dir ~name:"write-once" ~items:100
      ~item_bytes:16 ~gen ()
  in
  A.(check int) "cache reused, no regeneration" 100 !calls;
  match
    Apps.Dataset.ensure ~dir:ds_dir ~name:"bad" ~items:1 ~item_bytes:0
      ~gen ()
  with
  | _ -> A.fail "zero-byte records accepted"
  | exception Invalid_argument _ -> ()

let test_dataset_readers () =
  let ds =
    Apps.Dataset.ensure ~dir:ds_dir ~name:"readers" ~items:1000 ~item_bytes:16
      ~gen:gen_record ()
  in
  (* Windowed reads. *)
  let w = Apps.Dataset.pread ds ~start:37 ~count:5 in
  for k = 0 to 4 do
    A.(check string)
      (Printf.sprintf "pread record %d" (37 + k))
      (Bytes.to_string (gen_record (37 + k)))
      (Bytes.sub_string w (k * 16) 16)
  done;
  (match Apps.Dataset.pread ds ~start:999 ~count:2 with
  | _ -> A.fail "out-of-range pread accepted"
  | exception Invalid_argument _ -> ());
  (* Sequential cursor with a tiny chunk size, across a reopen. *)
  let c = Apps.Dataset.cursor ~chunk_items:7 ds ~start:10 ~stop:900 in
  let seen = ref 10 in
  let rec scan () =
    match Apps.Dataset.next c with
    | Some r ->
        A.(check string)
          (Printf.sprintf "cursor record %d" !seen)
          (Bytes.to_string (gen_record !seen))
          (Bytes.to_string r);
        if !seen = 400 then Apps.Dataset.close c;
        incr seen;
        scan ()
    | None -> ()
  in
  scan ();
  A.(check int) "cursor covered the range" 900 !seen;
  A.(check bool) "exhausted stays exhausted" true (Apps.Dataset.next c = None)

(* The cached corner grid must reproduce the analytic field bit for
   bit: out-of-core isosurface runs are then differentially testable
   against in-memory ones. *)
let test_iso_cached_grid_bit_identical () =
  let cfg = Apps.Isosurface.tiny in
  let ds = Apps.Isosurface.cached_grid ~dir:ds_dir cfg in
  let d1 = cfg.Apps.Isosurface.grid_dim + 1 in
  let all = Apps.Dataset.pread ds ~start:0 ~count:(d1 * d1 * d1) in
  for z = 0 to d1 - 1 do
    for y = 0 to d1 - 1 do
      for x = 0 to d1 - 1 do
        let ci = x + (d1 * (y + (d1 * z))) in
        let cached = Bytes.get_int64_le all (ci * 8) in
        let analytic =
          Int64.bits_of_float (Apps.Isosurface.field cfg x y z)
        in
        if not (Int64.equal cached analytic) then
          A.failf "corner (%d,%d,%d) differs" x y z
      done
    done
  done

(* Concurrent generators of the same dataset must not corrupt it: each
   writes a private pid+counter temp file and renames a complete copy
   into place.  (The old shared [path ^ ".tmp"] interleaved writers.) *)
let test_dataset_concurrent_writers () =
  let items = 500 and item_bytes = 16 in
  let gen i =
    (* stagger writers so their generation windows genuinely overlap *)
    if i mod 100 = 0 then Unix.sleepf 0.005;
    gen_record i
  in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Apps.Dataset.ensure ~dir:ds_dir ~name:"concurrent" ~items
              ~item_bytes ~gen ()))
  in
  let dss = List.map Domain.join writers in
  List.iter
    (fun ds ->
      let all = Apps.Dataset.pread ds ~start:0 ~count:items in
      let want = Bytes.concat Bytes.empty (List.init items gen_record) in
      A.(check bool) "every record intact" true (Bytes.equal all want))
    dss;
  let leftovers =
    Array.to_list (Sys.readdir ds_dir)
    |> List.filter (fun e ->
           Astring.String.is_infix ~affix:".tmp." e
           && Astring.String.is_prefix ~affix:"concurrent" e)
  in
  A.(check (list string)) "no temp files left behind" [] leftovers

let test_iso_cached_run_matches_analytic () =
  let module H = Apps.Harness in
  let cfg = Apps.Isosurface.tiny in
  let run app =
    match H.run_cell ~widths:[| 1; 1; 1 |] app with
    | Ok (_, _, results, _) ->
        List.map
          (fun (n, v) -> (n, Apps.Isosurface.zbuffer_arrays v))
          (List.filter (fun (n, _) -> n = "zfinal") results)
    | Error e -> raise (Supervisor.Run_failed e)
  in
  let analytic = run (H.iso_app ~variant:`Zbuffer cfg) in
  let cached =
    run
      (H.iso_app ~grid:(Apps.Isosurface.cached_grid ~dir:ds_dir cfg)
         ~variant:`Zbuffer cfg)
  in
  A.(check bool) "zbuffer results identical" true (analytic = cached)

(* ------------------------------------------------------------------ *)

let () =
  Fun.protect
    ~finally:(fun () -> rm_rf ds_dir)
    (fun () ->
      A.run "spill"
        [
          ("segment codec", codec_props);
          ( "segment files",
            [
              A.test_case "round-trip via disk" `Quick
                test_segment_file_roundtrip;
              A.test_case "truncated file rejected" `Quick
                test_segment_file_truncated;
              A.test_case "stale dirs swept" `Quick test_sweep_stale;
            ] );
          ( "spilling bqueue",
            [
              A.test_case "create validates capacity" `Quick
                test_create_validates_capacity;
              A.test_case "FIFO across spill" `Quick test_spill_fifo_order;
              A.test_case "close while spilled (domains)" `Quick
                test_close_while_spilled_domains;
            ] );
          ( "budgets and exit codes",
            [
              A.test_case "plan_queue_budgets" `Quick test_plan_queue_budgets;
              A.test_case "exit codes" `Quick test_exit_codes;
            ] );
          ( "dataset",
            [
              A.test_case "write-once cache" `Quick test_dataset_write_once;
              A.test_case "pread and cursor" `Quick test_dataset_readers;
              A.test_case "concurrent writers" `Quick
                test_dataset_concurrent_writers;
              A.test_case "iso grid bit-identical" `Quick
                test_iso_cached_grid_bit_identical;
              A.test_case "iso cached run matches" `Quick
                test_iso_cached_run_matches_analytic;
            ] );
        ])

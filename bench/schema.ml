(* The shape of a bench/results/BENCH_<target>.json file, shared by the
   bench itself (its smoke target parses its own output back) and by
   check_results.exe (the @bench-results rule over the committed
   files).  A file carries a "host" object (core count, OCaml version,
   commit) and a list of rows; every measured cell of a row is a median
   over [reps] forked repetitions, next to its interquartile range
   "<key>_iqr" and the repetition count "n". *)

module J = Obs.Json

(* Repetitions of every measured (par or proc) cell, after one
   warm-up. *)
let reps = 5

(* Wall-clock legs are measured wherever they appear; elapsed time and
   throughput are measured in rows of a wall-clock backend — a sim
   row's value is simulated, deterministic and run once. *)
let measured row key =
  match key with
  | "par_wall_s" | "proc_wall_s" -> true
  | "elapsed_s" | "items_per_s" -> (
      match J.member_opt "backend" row with
      | Some (J.Str ("par" | "proc")) -> true
      | _ -> false)
  | _ -> false

(* Every violation of the shape in [doc], as readable messages. *)
let problems doc =
  let host =
    match J.member_opt "host" doc with
    | Some h when J.member_opt "nproc" h <> None && J.member_opt "ocaml" h <> None -> []
    | _ -> [ "no \"host\" object with nproc and ocaml" ]
  in
  let row_problems row =
    let config = match J.member_opt "config" row with Some (J.Str c) -> c | _ -> "?" in
    let keys = match row with J.Obj kv -> List.map fst kv | _ -> [] in
    let measured_keys = List.filter (measured row) keys in
    List.filter_map
      (fun k ->
        if List.mem (k ^ "_iqr") keys then None
        else Some (Printf.sprintf "row %s: %s has no %s_iqr" config k k))
      measured_keys
    @
    match J.member_opt "n" row with
    | _ when measured_keys = [] -> []
    | Some (J.Int n) when n = reps -> []
    | _ -> [ Printf.sprintf "row %s: measured cells need \"n\" = %d" config reps ]
  in
  match J.member_opt "rows" doc with
  | Some (J.List (_ :: _ as rows)) -> host @ List.concat_map row_problems rows
  | _ -> host @ [ "no rows" ]

(* Metrics-fed re-planning (see replan.mli). *)

module J = Obs.Json

type stage_row = {
  rs_name : string;
  rs_width : int;
  rs_busy_s : float;
  rs_items : int;
  rs_items_out : int;
  rs_bytes_out : float;
}

type t = {
  rp_backend : string;
  rp_elapsed_s : float;
  rp_rows : stage_row array;
}

let sum_f l = List.fold_left (fun a j -> a +. J.to_float j) 0.0 l
let sum_i l = List.fold_left (fun a j -> a + J.to_int j) 0 l

let row_of_json j =
  let fl name = J.to_list (J.member name j) in
  {
    rs_name = J.to_str (J.member "name" j);
    rs_width = List.length (fl "busy_s");
    rs_busy_s = sum_f (fl "busy_s");
    rs_items = sum_i (fl "items");
    rs_items_out = sum_i (fl "items_out");
    rs_bytes_out = sum_f (fl "bytes_out");
  }

let of_json j =
  (* Accept both a bare runtime-metrics object and a full `cgppc run
     --metrics-json` document (runtime counters under "runtime"). *)
  let j = match J.member_opt "runtime" j with Some r -> r | None -> j in
  try
    let rows =
      Array.of_list (List.map row_of_json (J.to_list (J.member "stages" j)))
    in
    if Array.length rows < 2 then
      Error "metrics document has fewer than two stages"
    else
      Ok
        {
          rp_backend =
            (match J.member_opt "backend" j with
            | Some s -> J.to_str s
            | None -> "unknown");
          rp_elapsed_s = J.to_float (J.member "elapsed_s" j);
          rp_rows = rows;
        }
  with J.Parse_error msg -> Error ("not a metrics document: " ^ msg)

let of_file path =
  match
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  with
  | Error msg -> Error msg
  | Ok text -> (
      match J.parse_result text with
      | Error msg -> Error (path ^ ": " ^ msg)
      | Ok j -> of_json j)

let packets t =
  Array.fold_left
    (fun a r -> max a (max r.rs_items r.rs_items_out))
    0 t.rp_rows

let work_s r =
  let n = if r.rs_items > 0 then r.rs_items else r.rs_items_out in
  if n = 0 then 0.0 else r.rs_busy_s /. float_of_int n

let service_s r =
  if r.rs_width = 0 then 0.0 else work_s r /. float_of_int r.rs_width

let profile t =
  let n = max 1 (packets t) in
  {
    Costmodel.task = Array.map work_s t.rp_rows;
    vol_out =
      Array.map (fun r -> r.rs_bytes_out /. float_of_int n) t.rp_rows;
    packets = n;
  }

let default_budget = 4

let plan_widths ~budget t =
  if budget < 0 then invalid_arg "Replan.plan_widths: negative budget";
  let m = Array.length t.rp_rows in
  let widths = Array.map (fun r -> max 1 r.rs_width) t.rp_rows in
  let work = Array.map work_s t.rp_rows in
  (* Greedy water-filling, one copy at a time onto the inner stage with
     the worst remaining per-copy service. *)
  let per_copy s = work.(s) /. float_of_int widths.(s) in
  (* Endpoints are pinned, so their service time is the floor no amount
     of inner width can beat — growing an inner stage past it just
     burns copies. *)
  let floor_s = Float.max (per_copy 0) (per_copy (m - 1)) in
  for _ = 1 to budget do
    let best = ref (-1) in
    for s = 1 to m - 2 do
      if work.(s) > 0.0 && (!best < 0 || per_copy s > per_copy !best) then
        best := s
    done;
    if !best >= 0 && per_copy !best > floor_s then
      widths.(!best) <- widths.(!best) + 1
  done;
  widths

let item_bytes t =
  Array.map
    (fun r ->
      if r.rs_items_out = 0 then 1.0
      else Float.max 1.0 (r.rs_bytes_out /. float_of_int r.rs_items_out))
    t.rp_rows

let decompose ?(bandwidth = 1e12) ?(latency = 0.0) t =
  let m = Array.length t.rp_rows in
  let pipeline =
    Costmodel.uniform ~m ~power:1.0 ~bandwidth ~latency ()
  in
  let cons = { Decompose.pin_first = [ 0 ]; pin_last = [ m - 1 ] } in
  Decompose.bottleneck ~cons pipeline (profile t)

type plan = {
  pl_plan : Datacutter.Plan.t;
  pl_bottleneck : int;
  pl_decompose : Decompose.result;
}

let plan ?(batch_cap = 1) ?mem_budget ~budget t =
  Option.iter
    (fun b -> if b < 0 then invalid_arg "Replan.plan: negative memory budget")
    mem_budget;
  let widths = plan_widths ~budget t in
  let bottleneck = ref 0 in
  Array.iteri
    (fun s r ->
      if service_s r > service_s t.rp_rows.(!bottleneck) then bottleneck := s)
    t.rp_rows;
  {
    pl_plan =
      Datacutter.Plan.make ~batch:batch_cap ?mem_budget
        ~item_bytes:(item_bytes t)
        ~service_s:
          (Array.mapi
             (fun s r -> work_s r /. float_of_int widths.(s))
             t.rp_rows)
        widths;
    pl_bottleneck = !bottleneck;
    pl_decompose = decompose t;
  }

let pp_plan ppf (t, p) =
  let m = Array.length t.rp_rows in
  Fmt.pf ppf "replan from a %s run (%.4fs elapsed, %d packets):@\n"
    t.rp_backend t.rp_elapsed_s (packets t);
  Fmt.pf ppf "  %-5s %-12s %6s %8s %14s %14s %6s@\n" "stage" "name" "width"
    "items" "work(s/pkt)" "service(s/pkt)" "new";
  Array.iteri
    (fun s r ->
      Fmt.pf ppf "  %-5d %-12s %6d %8d %14.3e %14.3e %6d%s@\n" s r.rs_name
        r.rs_width
        (max r.rs_items r.rs_items_out)
        (work_s r) (service_s r) p.pl_plan.widths.(s)
        (if s = p.pl_bottleneck then "  <- bottleneck" else ""))
    t.rp_rows;
  Fmt.pf ppf "  widths: %s -> %s@\n"
    (String.concat "-"
       (Array.to_list
          (Array.map (fun r -> string_of_int r.rs_width) t.rp_rows)))
    (String.concat "-"
       (Array.to_list (Array.map string_of_int p.pl_plan.widths)));
  (match p.pl_plan.stage_batch with
  | Some b ->
      Fmt.pf ppf "  batch plan: %s@\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int b)))
  | None -> ());
  (match p.pl_plan.queue_budgets with
  | Some b ->
      Fmt.pf ppf "  queue budgets: %s@\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int b)))
  | None -> ());
  Fmt.pf ppf "  credit window: %d@\n" p.pl_plan.inflight;
  let asg = p.pl_decompose.Decompose.assignment in
  Fmt.pf ppf "  measured-profile decomposition (%d segments on %d units): %a@\n"
    (Array.length asg) m Costmodel.pp_assignment asg

(* Run sizing (see plan.mli). *)

type t = {
  widths : int array;
  stage_batch : int array option;
  mem_budget : int option;
  queue_budgets : int array option;
  inflight : int;
  frame_bytes : int;
}

(* One flush never buffers much more than this many bytes. *)
let batch_budget_bytes = 256 * 1024

let batches ~cap ~item_bytes =
  Array.map
    (fun bytes ->
      let per_flush =
        float_of_int batch_budget_bytes /. Float.max 1.0 bytes
      in
      max 1 (min cap (int_of_float per_flush)))
    item_bytes

(* Per-item framing on the wire: kind byte, packet id, length prefix. *)
let frame_item_overhead_bytes = 24

let frame_bytes ~stage_batch ~item_bytes =
  let worst = ref 0 in
  Array.iteri
    (fun s b ->
      let per =
        int_of_float (Float.max 1.0 item_bytes.(s)) + frame_item_overhead_bytes
      in
      worst := max !worst (b * per))
    stage_batch;
  !worst + 64

let queue_budgets ~total ~item_bytes ~widths =
  if total < 0 then
    invalid_arg
      (Printf.sprintf "Plan.queue_budgets: total must be >= 0 (got %d)" total);
  let m = Array.length widths in
  let weight s = Float.max 1.0 item_bytes.(s - 1) in
  let denom = ref 0.0 in
  for s = 1 to m - 1 do
    denom := !denom +. (float_of_int widths.(s) *. weight s)
  done;
  Array.init m (fun s ->
      if s = 0 then 0
      else
        max 1
          (int_of_float
             (float_of_int total *. weight s /. Float.max 1.0 !denom)))

(* The credit window.  Past 16 the round trip is hidden on any host
   this targets.  Each proc worker's rings get [Shm.plan_slots ~depth]
   slots, at least four windows, so a window can never fill a ring and
   a pipelined send never blocks while responses back up; at the cap
   that is 64 slots. *)
let default_inflight = 4
let max_inflight = 16
let clamp_inflight n =
  max 1 (min max_inflight (Option.value n ~default:default_inflight))

(* A Unix-domain context-switch round trip on a loaded host. *)
let rtt_s = 30e-6

let window ~service_s =
  if service_s <= 0.0 then max_inflight
  else
    let n = 1 + int_of_float (Float.ceil (rtt_s /. service_s)) in
    max 1 (min max_inflight n)

let make ~batch ?mem_budget ?inflight ~item_bytes ~service_s widths =
  let m = Array.length widths in
  if Array.length item_bytes <> m || Array.length service_s <> m then
    invalid_arg "Plan.make: item_bytes and service_s need one entry per stage";
  let stage_batch =
    if batch <= 1 then None else Some (batches ~cap:batch ~item_bytes)
  in
  let fastest = ref Float.infinity in
  for s = 0 to m - 2 do
    fastest := Float.min !fastest service_s.(s)
  done;
  {
    widths;
    stage_batch;
    mem_budget;
    (* a negative total is left for the engine to reject *)
    queue_budgets =
      (match mem_budget with
      | Some total when total >= 0 ->
          Some (queue_budgets ~total ~item_bytes ~widths)
      | _ -> None);
    inflight =
      (match inflight with
      | Some _ -> clamp_inflight inflight
      | None -> window ~service_s:!fastest);
    frame_bytes =
      frame_bytes
        ~stage_batch:(Option.value stage_batch ~default:(Array.make m 1))
        ~item_bytes;
  }

(* Bounded time-series of metric samples.

   One series holds rows of a fixed column layout: (timestamp, values)
   where [values] has one float per column.  The buffer is a ring —
   when [capacity] rows have been recorded the oldest row is dropped
   and a counter remembers how many were lost, so a long run degrades
   to "the most recent window" instead of unbounded memory.

   Not thread-safe: exactly one sampler (the sim event loop, or the
   calling thread of a par or proc run between its waits) appends, and
   readers collect after the run, mirroring the Trace collection
   discipline. *)

type t = {
  interval_s : float;
  columns : string array;
  rows : (float * float array) array;  (* ring storage *)
  mutable start : int;                 (* index of oldest row *)
  mutable length : int;
  mutable dropped : int;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ~interval_s ~columns () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity <= 0";
  if Array.length columns = 0 then
    invalid_arg "Timeseries.create: no columns";
  if interval_s <= 0.0 then invalid_arg "Timeseries.create: interval <= 0";
  {
    interval_s;
    columns = Array.copy columns;
    rows = Array.make capacity (0.0, [||]);
    start = 0;
    length = 0;
    dropped = 0;
  }

let interval_s t = t.interval_s
let columns t = Array.copy t.columns
let length t = t.length
let dropped t = t.dropped

let sample t ~ts values =
  if Array.length values <> Array.length t.columns then
    invalid_arg "Timeseries.sample: wrong arity";
  let cap = Array.length t.rows in
  if t.length = cap then begin
    (* overwrite the oldest row *)
    t.rows.(t.start) <- (ts, Array.copy values);
    t.start <- (t.start + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.rows.((t.start + t.length) mod cap) <- (ts, Array.copy values);
    t.length <- t.length + 1
  end

let nth t i =
  if i < 0 || i >= t.length then invalid_arg "Timeseries.nth";
  let ts, vs = t.rows.((t.start + i) mod Array.length t.rows) in
  (ts, Array.copy vs)

let rows t = List.init t.length (fun i -> nth t i)

let to_json t =
  Json.Obj
    [
      ("interval_s", Json.Float t.interval_s);
      ( "columns",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Str c) t.columns)) );
      ( "samples",
        Json.List
          (List.map
             (fun (ts, vs) ->
               Json.List
                 (Json.Float ts
                 :: Array.to_list (Array.map (fun v -> Json.Float v) vs)))
             (rows t)) );
      ("dropped", Json.Int t.dropped);
    ]

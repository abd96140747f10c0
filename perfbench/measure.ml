(* Measurement helpers shared by every workload: wall-clock timing with
   optional trace spans, order statistics, process memory, host steal,
   and running a closure in a forked child (the proc backend may only
   fork from a process that has never spawned a domain, so every
   repetition runs in a fresh child of the domain-free runner). *)

(* CLOCK_MONOTONIC in seconds: nanosecond resolution, and one time axis
   for every process on the host, so a stamp written by a forked worker
   can be subtracted from one taken in the runner. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A bench-side span around one public call: recorded in the Chrome trace
   when tracing is on, and always timed on the wall clock. *)
let span name f =
  let t0 = now () in
  let r = Obs.Trace.with_span ~cat:"bench" name f in
  (r, now () -. t0)

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks of an ascending array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile_sorted (sorted l) 0.5

(* Log-bucketed histogram of durations (0.5%-wide buckets from 100 ns to
   beyond 100 s), so latency samples of many repetitions pool in constant
   memory.  Quantiles are bucket midpoints, within 0.25% of the sample;
   the maximum is exact. *)
module Lhist = struct
  type t = { counts : int array; mutable n : int; mutable max : float }

  let lo = 1e-7
  let ratio = 1.005
  let buckets = 4200
  let create () = { counts = Array.make buckets 0; n = 0; max = 0.0 }

  let add h v =
    let i = if v <= lo then 0 else min (buckets - 1) (int_of_float (log (v /. lo) /. log ratio)) in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    if v > h.max then h.max <- v

  let of_array a =
    let h = create () in
    Array.iter (add h) a;
    h

  let merge hs =
    let m = create () in
    List.iter
      (fun h ->
        Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) h.counts;
        m.n <- m.n + h.n;
        m.max <- Float.max m.max h.max)
      hs;
    m

  let quantile h q =
    if h.n = 0 then nan
    else if q >= 1.0 then h.max
    else
      let rank = q *. float_of_int h.n in
      let rec go i acc =
        let acc = acc + h.counts.(i) in
        if float_of_int acc > rank || i = buckets - 1 then
          Float.min h.max (lo *. (ratio ** (float_of_int i +. 0.5)))
        else go (i + 1) acc
      in
      go 0 0
end

type summary = { median : float; p25 : float; p75 : float; min : float; n : int }

let summarize l =
  let a = sorted l in
  {
    median = quantile_sorted a 0.5;
    p25 = quantile_sorted a 0.25;
    p75 = quantile_sorted a 0.75;
    min = (if a = [||] then nan else a.(0));
    n = Array.length a;
  }

(* Relative spread: interquartile range over the median. *)
let spread s = if s.median = 0.0 then 0.0 else (s.p75 -. s.p25) /. Float.abs s.median

(* ---- process facts ---- *)

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let kb = String.trim v in
              let kb = String.sub kb 0 (String.index kb ' ') in
              float_of_string kb /. 1024.0
          | _ -> find ()
        in
        find ())
  with _ -> nan

(* (stolen, total) CPU clock ticks of the whole host so far, from the
   aggregate line of /proc/stat: time the hypervisor gave this virtual
   machine's CPUs to someone else, out of all CPU time. *)
let cpu_ticks () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
        | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
            let t = List.map int_of_string [ user; nice; system; idle; iowait; irq; softirq; steal ] in
            Some (int_of_string steal, List.fold_left ( + ) 0 t)
        | _ -> None)
  with Sys_error _ | End_of_file | Failure _ -> None

(* Run [f]; also return the share of host CPU time stolen meanwhile (0
   where the kernel does not report steal). *)
let with_steal f =
  let a = cpu_ticks () in
  let r = f () in
  match (a, cpu_ticks ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> (r, float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> (r, 0.0)

let host () =
  let transport = Datacutter.Shm.resolve None in
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ("transport", Obs.Json.Str (Datacutter.Shm.transport_name transport));
    ]

(* ---- forked calls ---- *)

(* Run [f] in a forked child and marshal its result back over a pipe.
   [Error] when fork is unavailable or the child dies without a result;
   the child is always reaped before returning. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  if not Datacutter.Proc_runtime.available then Error "fork unavailable"
  else begin
    flush stdout;
    flush stderr;
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | exception (Invalid_argument _ | Failure _ | Unix.Unix_error _) ->
        Unix.close rd;
        Unix.close wr;
        Error "fork unavailable"
    | 0 ->
        Unix.close rd;
        let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
        let oc = Unix.out_channel_of_descr wr in
        (try
           Marshal.to_channel oc r [];
           flush oc
         with _ -> ());
        Unix._exit 0
    | pid -> (
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let r =
          try (Marshal.from_channel ic : ('a, string) result)
          with End_of_file | Failure _ -> Error "child exited without a result"
        in
        close_in_noerr ic;
        let rec reap () =
          try snd (Unix.waitpid [] pid)
          with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        in
        match reap () with
        | Unix.WEXITED 0 -> r
        | Unix.WEXITED c -> Error (Printf.sprintf "child exited %d" c)
        | Unix.WSIGNALED s -> Error (Printf.sprintf "child killed by signal %d" s)
        | Unix.WSTOPPED _ -> Error "child stopped")
  end

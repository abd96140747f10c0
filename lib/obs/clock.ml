(* Monotonic elapsed-time clock over gettimeofday.

   Monotonicity is enforced per domain (a domain-local high-water mark)
   so no lock sits on the timestamp path taken by every span.  The mark
   only moves up by compare-and-set: systhreads sharing a domain may
   switch between its read and its write. *)

let t0 = Unix.gettimeofday ()

let last : float Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make 0.0)

let rec raise_mark hw t =
  let h = Atomic.get hw in
  if t <= h then h
  else if Atomic.compare_and_set hw h t then t
  else raise_mark hw t

let elapsed_s () = raise_mark (Domain.DLS.get last) (Unix.gettimeofday () -. t0)

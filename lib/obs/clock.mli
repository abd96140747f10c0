(** Monotonic process clock.

    All real-time observability timestamps are seconds since the process
    started, never decreasing even if the system clock steps backwards.
    (OCaml 5.1's [Unix] does not expose [CLOCK_MONOTONIC]; we enforce
    monotonicity over [gettimeofday] per domain, which is enough for
    span bookkeeping.)  Simulated-time traces bypass this module and
    stamp events with simulated seconds directly. *)

(** Seconds since process start; monotone non-decreasing within a
    domain, across the systhreads sharing it. *)
val elapsed_s : unit -> float

(** Filter decomposition (§4.4).

    Chooses where to insert the m-1 filter boundaries among the n
    candidates.  Three algorithms:
    - {!dp}: the paper's Figure 3 dynamic program, O(nm) time, additive
      (single-packet latency) objective;
    - {!bottleneck}: exact minimization of the §4.3 steady-state total
      by enumerating candidate bottleneck bounds over a cut-position DP
      (the additive DP prefers co-locating everything under uniform
      powers, which forfeits pipeline overlap — see DESIGN.md);
    - {!brute_force}: exhaustive oracle for testing and ablations. *)

(** Placement constraints: data sources must run where the data lives
    (C_1), per-packet sinks where results are viewed (C_m). *)
type constraints = {
  pin_first : int list;  (** segment indices pinned to unit 1 *)
  pin_last : int list;   (** segment indices pinned to unit m *)
}

val allowed : constraints -> m:int -> seg:int -> unit:int -> bool

type result = {
  assignment : Costmodel.assignment;
  latency : float;  (** additive objective of the result *)
  total : float;    (** §4.3 steady-state total of the result *)
  table : float array array;
      (** the DP table for inspection ([dp] only; empty otherwise) *)
}

(** Figure 3 dynamic program with backtracking.
    @raise Invalid_argument when constraints are infeasible. *)
val dp :
  ?cons:constraints -> Costmodel.pipeline -> Costmodel.profile -> result

(** The O(m)-space variant noted under Figure 3: same optimal value, no
    assignment recovery. *)
val dp_value_rowwise :
  ?cons:constraints -> Costmodel.pipeline -> Costmodel.profile -> float

(** Exhaustive search over all nondecreasing assignments, minimizing
    the chosen objective.  Exponential. *)
val brute_force :
  ?cons:constraints ->
  objective:[ `Latency | `Total ] ->
  Costmodel.pipeline ->
  Costmodel.profile ->
  result

(** Exact steady-state optimum (see module header). *)
val bottleneck :
  ?cons:constraints -> Costmodel.pipeline -> Costmodel.profile -> result

(** The paper's Default baseline (§6.2): read on the data host,
    everything else on the compute unit, results viewed on the last
    unit. *)
val default_assignment : m:int -> segments:int -> Costmodel.assignment

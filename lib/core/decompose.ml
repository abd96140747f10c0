(* Filter decomposition (§4.4, Figure 3).

   Given n+1 atomic filters and m computing units, choose where to insert
   m-1 filter boundaries.  The dynamic program fills T[i, j] — the minimum
   cost of completing filters f_1 .. f_i with the results of f_i residing
   on unit C_j — in O(nm) time:

     T[i, j] = min { T[i-1, j] + Cost_comp(P(C_j), Task(f_i)),
                     T[i, j-1] + Cost_comm(B(L_{j-1}), Vol(f_i)) }

   The additive objective is the single-packet latency; the steady-state
   bottleneck cost (§4.3) is evaluated on the resulting decomposition.
   A brute-force oracle (exponential enumeration of boundary placements)
   is provided for testing and for the ablation benchmark.

   Placement constraints: segments calling a data-source extern must run
   on C_1 (that is where the repository lives) and segments calling a
   sink extern must run on C_m (where results are viewed). *)

type constraints = {
  pin_first : int list; (* segment indices (0-based) pinned to unit 1 *)
  pin_last : int list;  (* segment indices pinned to unit m *)
}

let no_constraints = { pin_first = []; pin_last = [] }

let allowed cons ~m ~seg ~unit =
  (not (List.mem seg cons.pin_first && unit <> 1))
  && not (List.mem seg cons.pin_last && unit <> m)

type result = {
  assignment : Costmodel.assignment; (* unit of each segment, 1-based *)
  latency : float;                   (* additive DP objective *)
  total : float;                     (* steady-state total time (§4.3) *)
  table : float array array;         (* the DP table, for inspection *)
}

let infinity_cost = infinity

(* Dynamic programming decomposition. *)
let dp ?(cons = no_constraints) (p : Costmodel.pipeline)
    (profile : Costmodel.profile) : result =
  let m = Costmodel.width_of p in
  let n1 = Costmodel.segment_count profile in
  if n1 = 0 then invalid_arg "dp: no segments";
  (* t.(i).(j): filters 0..i done, results of filter i on unit j (1-based
     j, stored at index j-1).  choice.(i).(j) = `Comp -> placed f_i on C_j
     after T[i-1][j]; `Comm -> moved from C_{j-1}. *)
  let t = Array.make_matrix n1 m infinity_cost in
  let choice = Array.make_matrix n1 m `None in
  for i = 0 to n1 - 1 do
    for j = 1 to m do
      let comp =
        if not (allowed cons ~m ~seg:i ~unit:j) then infinity_cost
        else
          let prev = if i = 0 then 0.0 else t.(i - 1).(j - 1) in
          prev +. Costmodel.cost_comp p.Costmodel.units.(j - 1) profile.Costmodel.task.(i)
      in
      let comm =
        if j = 1 then infinity_cost
        else
          t.(i).(j - 2)
          +. Costmodel.cost_comm p.Costmodel.links.(j - 2)
               profile.Costmodel.vol_out.(i)
      in
      if comp <= comm then begin
        t.(i).(j - 1) <- comp;
        choice.(i).(j - 1) <- `Comp
      end
      else begin
        t.(i).(j - 1) <- comm;
        choice.(i).(j - 1) <- `Comm
      end
    done
  done;
  (* backtrack from T[n][m] *)
  let assignment = Array.make n1 m in
  let rec back i j =
    if i >= 0 then
      match choice.(i).(j - 1) with
      | `Comp ->
          assignment.(i) <- j;
          back (i - 1) j
      | `Comm -> back i (j - 1)
      | `None -> invalid_arg "dp: unreachable state during backtracking"
  in
  if t.(n1 - 1).(m - 1) = infinity_cost then
    invalid_arg "dp: constraints made the problem infeasible";
  back (n1 - 1) m;
  {
    assignment;
    latency = t.(n1 - 1).(m - 1);
    total = Costmodel.total_time p profile assignment;
    table = t;
  }

(* The space-optimized variant of Figure 3's note: O(m) space, same
   result value (no backtracking information retained). *)
let dp_value_rowwise ?(cons = no_constraints) (p : Costmodel.pipeline)
    (profile : Costmodel.profile) : float =
  let m = Costmodel.width_of p in
  let n1 = Costmodel.segment_count profile in
  let row = Array.make m infinity_cost in
  for i = 0 to n1 - 1 do
    for j = 1 to m do
      let comp =
        if not (allowed cons ~m ~seg:i ~unit:j) then infinity_cost
        else
          let prev = if i = 0 then 0.0 else row.(j - 1) in
          prev +. Costmodel.cost_comp p.Costmodel.units.(j - 1) profile.Costmodel.task.(i)
      in
      (* row.(j-2) already holds T[i][j-1] at this point of the sweep *)
      let comm =
        if j = 1 then infinity_cost
        else
          row.(j - 2)
          +. Costmodel.cost_comm p.Costmodel.links.(j - 2)
               profile.Costmodel.vol_out.(i)
      in
      row.(j - 1) <- min comp comm
    done
  done;
  row.(m - 1)

(* Enumerate all nondecreasing assignments of n+1 segments to m units and
   return the best under [objective].  Exponential; for tests/ablations. *)
let brute_force ?(cons = no_constraints)
    ~(objective : [ `Latency | `Total ]) (p : Costmodel.pipeline)
    (profile : Costmodel.profile) : result =
  let m = Costmodel.width_of p in
  let n1 = Costmodel.segment_count profile in
  let best = ref None in
  let a = Array.make n1 1 in
  let cost_of a =
    match objective with
    | `Latency -> Costmodel.latency_time p profile a
    | `Total -> Costmodel.total_time p profile a
  in
  let feasible a =
    let ok = ref true in
    Array.iteri
      (fun i u -> if not (allowed cons ~m ~seg:i ~unit:u) then ok := false)
      a;
    !ok
  in
  let rec go i lo =
    if i = n1 then begin
      if feasible a then begin
        let c = cost_of a in
        match !best with
        | Some (c0, _) when c0 <= c -> ()
        | _ -> best := Some (c, Array.copy a)
      end
    end
    else
      for u = lo to m do
        a.(i) <- u;
        go (i + 1) u
      done
  in
  go 0 1;
  match !best with
  | None -> invalid_arg "brute_force: infeasible"
  | Some (_, assignment) ->
      {
        assignment;
        latency = Costmodel.latency_time p profile assignment;
        total = Costmodel.total_time p profile assignment;
        table = [||];
      }

(* --------------------------------------------------------------- *)
(* Steady-state (bottleneck) decomposition                          *)
(* --------------------------------------------------------------- *)

(* The Figure 3 dynamic program minimizes the additive single-packet
   latency; under uniform unit powers it therefore prefers to co-locate
   all computation (no communication), which ignores pipeline overlap.
   The paper's cost model (§4.3), however, is the steady-state formula
   (N-1) * T(bottleneck) + fill.  [bottleneck] minimizes that objective
   exactly: stage times take finitely many values (contiguous segment
   ranges per unit, one volume per boundary), so we enumerate candidate
   bottleneck bounds B and, for each, run a cut-position DP that finds
   the minimum fill among assignments whose every stage time is <= B. *)

let prefix_sums task =
  let n = Array.length task in
  let p = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) +. task.(i)
  done;
  p

(* Output volume crossing the boundary that enters segment [c] (i.e. the
   last segment before [c] produced it); 0 when nothing precedes. *)
let boundary_volume (profile : Costmodel.profile) c =
  if c = 0 then 0.0 else profile.Costmodel.vol_out.(c - 1)

let bottleneck ?(cons = no_constraints) (p : Costmodel.pipeline)
    (profile : Costmodel.profile) : result =
  let m = Costmodel.width_of p in
  let n1 = Costmodel.segment_count profile in
  let sums = prefix_sums profile.Costmodel.task in
  let unit_time u a b =
    (* segments [a, b) on unit u (1-based) *)
    (sums.(b) -. sums.(a)) /. p.Costmodel.units.(u - 1).Costmodel.power
  in
  let link_time l c =
    (* boundary entering segment c crossing link l (1-based) *)
    Costmodel.cost_comm p.Costmodel.links.(l - 1) (boundary_volume profile c)
  in
  (* candidate bottleneck values *)
  let candidates = ref [] in
  for u = 1 to m do
    for a = 0 to n1 do
      for b = a to n1 do
        candidates := unit_time u a b :: !candidates
      done
    done
  done;
  for l = 1 to m - 1 do
    for c = 0 to n1 do
      candidates := link_time l c :: !candidates
    done
  done;
  let candidates = List.sort_uniq compare !candidates in
  let range_allowed u a b =
    let ok = ref true in
    for i = a to b - 1 do
      if not (allowed cons ~m ~seg:i ~unit:u) then ok := false
    done;
    !ok
  in
  (* Min fill with every stage time <= bound; None if infeasible.
     g.(u).(c) = min fill for units 1..u hosting segments [0, c), with
     the link u->u+1 not yet charged. *)
  let solve bound =
    let eps = 1e-12 in
    let g = Array.make_matrix (m + 1) (n1 + 1) infinity in
    let choice = Array.make_matrix (m + 1) (n1 + 1) (-1) in
    g.(0).(0) <- 0.0;
    for u = 1 to m do
      for c' = 0 to n1 do
        for c = 0 to c' do
          if g.(u - 1).(c) < infinity then begin
            let ut = unit_time u c c' in
            let lt = if u = 1 then 0.0 else link_time (u - 1) c in
            if
              ut <= bound +. eps
              && lt <= bound +. eps
              && range_allowed u c c'
            then begin
              let fill = g.(u - 1).(c) +. ut +. lt in
              if fill < g.(u).(c') then begin
                g.(u).(c') <- fill;
                choice.(u).(c') <- c
              end
            end
          end
        done
      done
    done;
    if g.(m).(n1) = infinity then None
    else begin
      (* backtrack the cuts into an assignment *)
      let assignment = Array.make n1 m in
      let rec back u c' =
        if u >= 1 then begin
          let c = choice.(u).(c') in
          for i = c to c' - 1 do
            assignment.(i) <- u
          done;
          back (u - 1) c
        end
      in
      back m n1;
      Some assignment
    end
  in
  let best = ref None in
  List.iter
    (fun b ->
      match solve b with
      | None -> ()
      | Some a ->
          let total = Costmodel.total_time p profile a in
          (match !best with
          | Some (t0, _) when t0 <= total -> ()
          | _ -> best := Some (total, a)))
    candidates;
  match !best with
  | None -> invalid_arg "bottleneck: infeasible constraints"
  | Some (total, assignment) ->
      {
        assignment;
        latency = Costmodel.latency_time p profile assignment;
        total;
        table = [||];
      }

(* The paper's Default baseline: the data host only reads and forwards,
   all computation happens on the middle unit(s), and the results are
   viewed on the last unit (which receives only the merged reduction
   state, so no program segment is placed there). *)
let default_assignment ~m ~segments : Costmodel.assignment =
  let middle = min 2 m in
  Array.init segments (fun i -> if i = 0 then 1 else middle)

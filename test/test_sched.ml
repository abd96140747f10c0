(* The scheduler seam on effect fibers: Bqueue waits and wakes between
   fibers on two host domains, and the interpreter's yield points.

   Each case runs on its own hosts and the calling thread waits for it
   with a 10 s limit, so a lost wake-up fails the case instead of
   hanging the suite. *)

module A = Alcotest
open Datacutter
module V = Lang.Value

(* Run [bodies] (one list per host) and wait until [finished] fibers
   have signalled [done_]; [false] after 10 s.  A hung case's hosts are
   leaked, as a stuck run leaks them. *)
let within_limit bodies ~done_ ~finished =
  let hs =
    Sched.hosts
      (List.mapi
         (fun i bs -> ((if i = 0 then Sched.Thread else Sched.Domain), bs))
         bodies)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await () =
    if Atomic.get done_ >= finished then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.001;
      await ()
    end
  in
  let ok = await () in
  if ok then begin
    Sched.close hs;
    List.iteri (fun i _ -> Sched.join hs i) bodies
  end;
  ok

(* --- Bqueue between fibers --- *)

type case = {
  capacity : int;
  items : int;
  pushes : int list;  (** producer batch sizes, cycled *)
  relay_max : int;
  sink_max : int;
  yields : bool list;  (** yield after an operation?, cycled *)
  abort_after : int option;  (** set stop once this many items are pushed *)
}

let gen_case =
  QCheck.Gen.(
    map
      (fun ((capacity, items, pushes), (relay_max, sink_max, yields, abort)) ->
        {
          capacity;
          items;
          pushes;
          relay_max;
          sink_max;
          yields;
          abort_after = Option.map (fun k -> k mod (items + 1)) abort;
        })
      (pair
         (triple (int_range 1 4) (int_range 0 60)
            (list_size (int_range 1 4) (int_range 1 5)))
         (quad (int_range 1 4) (int_range 1 4)
            (list_size (int_range 1 5) bool)
            (opt ~ratio:0.25 (int_range 0 60)))))

let print_case c =
  Printf.sprintf
    "capacity %d, %d items, pushes [%s], relay max %d, sink max %d, yields \
     [%s], abort %s"
    c.capacity c.items
    (String.concat ";" (List.map string_of_int c.pushes))
    c.relay_max c.sink_max
    (String.concat ";" (List.map string_of_bool c.yields))
    (match c.abort_after with Some k -> string_of_int k | None -> "none")

let cycle l =
  let i = ref 0 in
  fun () ->
    let x = List.nth l (!i mod List.length l) in
    incr i;
    x

(* producer (host 0) -> q1 -> relay (host 1) -> q2 -> sink (host 0):
   the relay wakes fibers on another domain through its inbox, and the
   producer and the sink share a host.  Closing ends the stream
   gracefully: the sink must see every item once, in order.  Setting
   stop aborts it: every fiber must still end, and the sink must have
   seen a prefix of the stream. *)
let run_case c =
  let stop = Atomic.make false in
  let q1 = Bqueue.create ~stop c.capacity and q2 = Bqueue.create ~stop c.capacity in
  let got = ref [] and done_ = Atomic.make 0 in
  let maybe_yield =
    let y = cycle c.yields in
    fun () -> if y () then Sched.yield ()
  in
  let fiber f () =
    (try f () with Bqueue.Aborted | Bqueue.Closed -> ());
    Atomic.incr done_
  in
  let abort () =
    Atomic.set stop true;
    Bqueue.wake q1;
    Bqueue.wake q2
  in
  let producer () =
    let batch = cycle c.pushes in
    let rec go next =
      if c.abort_after = Some next then abort ();
      if next < c.items then begin
        let n = min (batch ()) (c.items - next) in
        let xs = List.init n (fun i -> next + i) in
        ignore
          (match xs with [ x ] -> Bqueue.push q1 x | xs -> Bqueue.push_all q1 xs);
        maybe_yield ();
        go (next + n)
      end
    in
    go 0;
    Bqueue.close q1
  in
  let relay () =
    let rec go () =
      match Bqueue.pop_all q1 ~max:c.relay_max with
      | xs, _ ->
          ignore (Bqueue.push_all q2 xs);
          maybe_yield ();
          go ()
      | exception Bqueue.Closed -> Bqueue.close q2
    in
    go ()
  in
  let sink () =
    let rec go () =
      let xs, _ = Bqueue.pop_all q2 ~max:c.sink_max in
      got := List.rev_append xs !got;
      maybe_yield ();
      go ()
    in
    go ()
  in
  if
    not
      (within_limit
         [ [ fiber producer; fiber sink ]; [ fiber relay ] ]
         ~done_ ~finished:3)
  then QCheck.Test.fail_reportf "hung for 10 s (a lost wake-up)";
  let got = List.rev !got in
  let expected = List.init c.items Fun.id in
  match c.abort_after with
  | None when got = expected -> true
  | None ->
      QCheck.Test.fail_reportf "sink saw [%s]"
        (String.concat ";" (List.map string_of_int got))
  | Some _ ->
      List.length got <= c.items
      && List.filteri (fun i _ -> i < List.length got) expected = got

let prop_bqueue_fibers =
  QCheck.Test.make ~name:"bqueue between fibers on two hosts" ~count:150
    (QCheck.make ~print:print_case gen_case)
    run_case

(* --- interpreter yield points --- *)

(* An interpreted loop that runs for at least 50 ms, and the number of
   iterations it has done so far. *)
let loop_50ms () =
  let iters = ref 0 in
  let t0 = ref 0.0 in
  let clock =
    ( "clock",
      fun _ _ ->
        incr iters;
        V.Vint (int_of_float ((Unix.gettimeofday () -. !t0) *. 1000.0)) )
  in
  let src =
    {|
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  int n = 0;
  while (clock(n) < 50) { n = n + 1; }
  local.x = float_of_int(n);
  result.merge(local);
}
|}
  in
  let prog = Lang.Parser.parse src in
  Lang.Typecheck.check
    ~externs:
      [
        Lang.Typecheck.
          { ex_name = "clock"; ex_params = [ Lang.Ast.Tint ]; ex_ret = Lang.Ast.Tint };
      ]
    prog;
  let ctx = Lang.Interp.create_ctx ~externs:[ clock ] prog in
  let run () =
    t0 := Unix.gettimeofday ();
    ignore (Lang.Interp.run_reference ctx)
  in
  (run, iters)

(* The loop and [other] as fibers on one host ([other] first if
   [other_first]); once [other] returns, it records how many iterations
   the loop had done, which must be more than none and fewer than all. *)
let check_runs_during_loop ~other_first what other =
  let loop, iters = loop_50ms () in
  let seen = ref (-1) and done_ = Atomic.make 0 in
  let looper () =
    loop ();
    Atomic.incr done_
  in
  let other () =
    other ();
    seen := !iters;
    Atomic.incr done_
  in
  A.(check bool) "finished within 10 s" true
    (within_limit
       [ (if other_first then [ other; looper ] else [ looper; other ]) ]
       ~done_ ~finished:2);
  A.(check bool)
    (Printf.sprintf "%s after %d of %d iterations" what !seen !iters)
    true
    (!seen > 0 && !seen < !iters)

(* A fiber interpreting the loop lets its runnable sibling run before
   the loop ends. *)
let test_loop_yields () =
  check_runs_during_loop ~other_first:false "sibling ran" ignore

(* A fiber that sleeps 5 ms next to the loop wakes before the loop
   ends: a deadline fires while a sibling computes, not only once the
   host has nothing else to run. *)
let test_sleep_wakes () =
  check_runs_during_loop ~other_first:true "sleeper woke" (fun () ->
      Sched.sleep 0.005)

(* --- published waits --- *)

let pp_status ppf = function
  | Sched.Running -> Fmt.string ppf "running"
  | Sched.Waiting l -> Fmt.pf ppf "waiting %s" l
  | Sched.Woken l -> Fmt.pf ppf "woken %s" l
  | Sched.Yielded -> Fmt.string ppf "yielded"

let status = A.testable pp_status ( = )

(* A fiber parked on a [Sched.cond] reads as waiting under its label,
   and its park count moves; once signalled, and before its host resumes
   it, it reads as woken, not waiting; a fiber in a yield reads as
   yielded; a sleeping fiber never reads as waiting.  The parker and the
   signaller share host 0, parker first, so the parker cannot resume
   while the signaller runs, and resumes when the signaller yields; the
   sleeper sleeps alone on host 1 while the signaller reads it. *)
let test_published_waits () =
  let m = Mutex.create () and c = Sched.cond () in
  let parker = Atomic.make None and signaller = Atomic.make None in
  let sleeper = Atomic.make None in
  let asleep = Atomic.make false and done_ = Atomic.make 0 in
  let parks_before = ref (-1) and parked = ref [] and woken = ref [] in
  let yielded = ref [] and sleeping = ref [] in
  let fiber f () =
    f ();
    Atomic.incr done_
  in
  let park () =
    let f = Option.get (Sched.current ()) in
    Atomic.set parker (Some f);
    parks_before := Sched.parks f;
    Mutex.lock m;
    Sched.wait c m "blocked_pop";
    Mutex.unlock m;
    yielded := [ Sched.status (Option.get (Atomic.get signaller)) ]
  in
  let signal () =
    Atomic.set signaller (Sched.current ());
    let f = Option.get (Atomic.get parker) in
    parked := [ (Sched.status f, Sched.parks f) ];
    Mutex.lock m;
    Sched.signal c;
    Mutex.unlock m;
    woken := [ Sched.status f ];
    Sched.yield ();
    while not (Atomic.get asleep) do Unix.sleepf 0.001 done;
    let s = Option.get (Atomic.get sleeper) in
    for _ = 1 to 20 do
      sleeping := Sched.status s :: !sleeping;
      Unix.sleepf 0.001
    done
  in
  let sleep () =
    Atomic.set sleeper (Sched.current ());
    Atomic.set asleep true;
    Sched.sleep 0.1
  in
  A.(check bool) "finished within 10 s" true
    (within_limit
       [ [ fiber park; fiber signal ]; [ fiber sleep ] ]
       ~done_ ~finished:3);
  A.(check (list (pair status int)))
    "parked: waiting, one more park"
    [ (Sched.Waiting "blocked_pop", !parks_before + 1) ]
    !parked;
  A.(check (list status)) "signalled, not yet resumed: woken"
    [ Sched.Woken "blocked_pop" ] !woken;
  A.(check (list status)) "yielding: yielded" [ Sched.Yielded ] !yielded;
  A.(check (list status)) "sleeping: running"
    (List.init 20 (fun _ -> Sched.Running))
    !sleeping;
  A.(check status) "resumed: running" Sched.Running
    (Sched.status (Option.get (Atomic.get parker)))

let () =
  A.run "sched"
    [
      ( "fibers",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
            prop_bqueue_fibers;
          A.test_case "interpreted loop yields to a sibling" `Quick
            test_loop_yields;
          A.test_case "sleeper wakes during a sibling's loop" `Quick
            test_sleep_wakes;
          A.test_case "waits are published" `Quick test_published_waits;
        ] );
    ]

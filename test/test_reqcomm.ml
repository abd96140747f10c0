(* Tests for the backward ReqComm propagation (§4.2). *)

module A = Alcotest
open Core
open Lang

let analyze src = Reqcomm.analyze (Parser.parse src)

let pipeline_src =
  {|
class T { float a; float b; bool keep; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
int threshold = 10;
R acc = new R();
pipelined (p in [0 : 4]) {
  List<T> ts = read_ts(p);
  List<T> sel = new List<T>();
  foreach (t in ts where t.keep) {
    sel.add(t);
  }
  R local = new R();
  foreach (t in sel) {
    local.x += t.a;
  }
  acc.merge(local);
}
|}

let v x = Varset.Var x
let f c fl = Varset.ElemField (c, fl)
let coll c = Varset.Coll c

let test_backward_propagation () =
  let rc = analyze pipeline_src in
  A.(check int) "segments" 4 (Reqcomm.segment_count rc);
  (* boundary 1 (after the read): everything of ts flows *)
  let b1 = Reqcomm.reqcomm_into rc 1 in
  A.(check bool) "ts.a" true (Varset.mem (f "ts" "a") b1);
  A.(check bool) "ts.keep" true (Varset.mem (f "ts" "keep") b1);
  A.(check bool) "ts structure" true (Varset.mem (coll "ts") b1);
  (* boundary 2 (after the compaction): only sel flows, ts is dead *)
  let b2 = Reqcomm.reqcomm_into rc 2 in
  A.(check bool) "sel.a" true (Varset.mem (f "sel" "a") b2);
  A.(check bool) "ts dead" false (Varset.mem (f "ts" "a") b2);
  (* boundary 3 (before the merge): the local partial flows *)
  let b3 = Reqcomm.reqcomm_into rc 3 in
  A.(check bool) "local.x" true (Varset.mem (f "local" "x") b3);
  A.(check bool) "sel dead" false (Varset.mem (f "sel" "a") b3);
  (* end: nothing *)
  A.(check bool) "end empty" true (Varset.is_empty (Reqcomm.reqcomm_into rc 4))

let test_narrowing_to_used_fields () =
  (* only the fields downstream actually reads should cross *)
  let rc =
    analyze
      {|
class T { float a; float b; bool keep; }
pipelined (p in [0 : 2]) {
  List<T> ts = read_ts(p);
  float s = 0.0;
  foreach (t in ts) { s = s + t.a; }
  emit(s);
}
|}
  in
  let b1 = Reqcomm.reqcomm_into rc 1 in
  A.(check bool) "a crosses" true (Varset.mem (f "ts" "a") b1);
  A.(check bool) "b does not" false (Varset.mem (f "ts" "b") b1);
  A.(check bool) "keep does not" false (Varset.mem (f "ts" "keep") b1)

let test_reduction_globals_excluded () =
  let rc = analyze pipeline_src in
  for i = 0 to Reqcomm.segment_count rc do
    let b = Reqcomm.reqcomm_into rc i in
    A.(check bool)
      (Printf.sprintf "no acc at b%d" i)
      false
      (Varset.mem (f "acc" "x") b || Varset.mem (v "acc") b)
  done

let test_config_globals_excluded () =
  let rc =
    analyze
      {|
int threshold = 10;
pipelined (p in [0 : 2]) {
  List<int> xs = read_xs(p);
  int n = 0;
  foreach (x in xs where x < threshold) { n = n + 1; }
  emit(n);
}
|}
  in
  let b1 = Reqcomm.reqcomm_into rc 1 in
  A.(check bool) "threshold broadcast, not streamed" false
    (Varset.mem (v "threshold") b1)

let test_reqcomm_correct_when_boundary_skipped () =
  (* the paper's §4.2 observation: ReqComm(b_i) stays valid when later
     candidate boundaries are not selected; concretely ReqComm(b1) must
     include everything segment 3 needs that segment 1 and 2 don't
     produce *)
  let rc = analyze pipeline_src in
  let b1 = Reqcomm.reqcomm_into rc 1 in
  (* local.x is produced in segment 2 (decl) — not needed at b1 *)
  A.(check bool) "local produced downstream" false (Varset.mem (f "local" "x") b1)

let test_seg_metadata () =
  let rc = analyze pipeline_src in
  let si = rc.Reqcomm.segs.(3) in
  A.(check bool) "merge touches acc" true
    (Reqcomm.S.mem "acc" si.Reqcomm.si_reduc_state);
  let si0 = rc.Reqcomm.segs.(0) in
  A.(check bool) "read calls extern" true
    (Reqcomm.S.mem "read_ts" si0.Reqcomm.si_externs)

let test_first_consumer () =
  let rc = analyze pipeline_src in
  (* after boundary 1, ts.keep is first consumed by segment 1 (the
     compaction), ts.a by segment 1 too (via sel.add copying fields) *)
  A.(check (option int)) "keep consumer" (Some 1)
    (Reqcomm.first_consumer rc 1 (f "ts" "keep"));
  (* local.x first consumed by the merge (segment 3) *)
  A.(check (option int)) "local.x consumer" (Some 3)
    (Reqcomm.first_consumer rc 3 (f "local" "x"))

let test_segments_calling () =
  let rc = analyze pipeline_src in
  let module S = Set.Make (String) in
  A.(check (list int)) "read pinned" [ 0 ]
    (Reqcomm.segments_calling rc (S.singleton "read_ts"))

let suite =
  [
    ("backward propagation", `Quick, test_backward_propagation);
    ("narrow to used fields", `Quick, test_narrowing_to_used_fields);
    ("reduction globals excluded", `Quick, test_reduction_globals_excluded);
    ("config globals excluded", `Quick, test_config_globals_excluded);
    ("valid when boundary skipped", `Quick, test_reqcomm_correct_when_boundary_skipped);
    ("segment metadata", `Quick, test_seg_metadata);
    ("first consumer", `Quick, test_first_consumer);
    ("segments_calling", `Quick, test_segments_calling);
  ]

let () = Alcotest.run "reqcomm" [ ("reqcomm", suite) ]

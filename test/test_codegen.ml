(* Tests for filter code generation: plan construction, per-unit segment
   assignment, reduction-state bookkeeping, topology validation, and the
   generated filters' buffer protocol. *)

module A = Alcotest
open Core
open Lang
module V = Value
module SS = Set.Make (String)

(* Run on the simulator via the unified API, raising on failure. *)
let sim_run topo =
  Datacutter.Supervisor.ok_exn (Datacutter.Runtime.run_result topo)

let src =
  {|
class P { float a; float b; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc = new R();
pipelined (p in [0 : runtime_define num_packets]) {
  List<P> ps = read_ps(p);
  List<P> sel = new List<P>();
  foreach (t in ps where t.a > 0.5) {
    sel.add(t);
  }
  R local = new R();
  foreach (t in sel) {
    local.x += t.a + t.b;
  }
  acc.merge(local);
}
|}

let read_ps : string * Interp.extern_fn =
  ( "read_ps",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let vec = V.Vec.create () in
      for i = 0 to 19 do
        let o = V.make_object (Interp.class_decl ctx "P") in
        V.set_field o "a"
          (V.Vfloat (Apps.Prng.hash_float 3 ((p * 40) + (2 * i))));
        V.set_field o "b"
          (V.Vfloat (Apps.Prng.hash_float 3 ((p * 40) + (2 * i) + 1)));
        V.Vec.push vec (V.Vobject o)
      done;
      V.Vlist vec )

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_ps";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "P");
      };
  ]

let num_packets = 4

let make_plan ?m assignment =
  let rc = Reqcomm.analyze (Compile.front_end ~externs_sig src) in
  let m = match m with Some m -> m | None -> Array.fold_left max 1 assignment in
  Codegen.make_plan rc ~assignment ~m ~num_packets
    ~externs:[ read_ps ]
    ~runtime_defs:[ ("num_packets", num_packets) ]

(* segments: read | compact foreach | fold foreach | merge *)
let default_assignment = [| 1; 1; 2; 3 |]

let test_plan_cuts () =
  let plan = make_plan default_assignment in
  A.(check int) "m" 3 plan.Codegen.m;
  A.(check (array int)) "cuts" [| 0; 2; 3 |] plan.Codegen.cuts;
  A.(check int) "layout into unit2 nonempty" 1
    (List.length plan.Codegen.layouts.(1) |> min 1)

let test_segments_of_unit () =
  let plan = make_plan default_assignment in
  A.(check int) "unit1 two segments" 2
    (List.length (Codegen.segments_of_unit plan 1));
  A.(check int) "unit2 one segment" 1
    (List.length (Codegen.segments_of_unit plan 2));
  A.(check int) "unit3 one segment" 1
    (List.length (Codegen.segments_of_unit plan 3))

let test_reduc_updated () =
  let plan = make_plan default_assignment in
  (* the merge segment (on unit 3) touches acc *)
  A.(check bool) "unit3 holds acc" true
    (SS.mem "acc" (Codegen.reduc_updated plan 3));
  A.(check bool) "unit1 does not" false
    (SS.mem "acc" (Codegen.reduc_updated plan 1))

let test_source_generates_all_packets () =
  let plan = make_plan default_assignment in
  let src1 = Codegen.make_source plan ~width:1 0 in
  let rec drain n =
    match src1.Datacutter.Filter.next () with
    | Some (b, cost) ->
        A.(check bool) "positive cost" true (cost > 0.0);
        A.(check int) "packet id" n b.Datacutter.Filter.packet;
        drain (n + 1)
    | None -> n
  in
  A.(check int) "all packets" num_packets (drain 0)

let test_source_sharding () =
  let plan = make_plan default_assignment in
  let ids k =
    let s = Codegen.make_source plan ~width:2 k in
    let rec go acc =
      match s.Datacutter.Filter.next () with
      | Some (b, _) -> go (b.Datacutter.Filter.packet :: acc)
      | None -> List.rev acc
    in
    go []
  in
  A.(check (list int)) "copy 0" [ 0; 2 ] (ids 0);
  A.(check (list int)) "copy 1" [ 1; 3 ] (ids 1)

let test_filter_processes_buffer () =
  let plan = make_plan default_assignment in
  let src1 = Codegen.make_source plan ~width:1 0 in
  let f2 = Codegen.make_filter plan ~u:2 0 in
  match src1.Datacutter.Filter.next () with
  | None -> A.fail "expected a packet"
  | Some (b, _) -> (
      let out, cost = f2.Datacutter.Filter.process b in
      A.(check bool) "positive cost" true (cost > 0.0);
      match out with
      | None -> A.fail "middle filter must forward"
      | Some b' ->
          A.(check int) "packet id preserved" b.Datacutter.Filter.packet
            b'.Datacutter.Filter.packet;
          A.(check bool) "smaller after fold" true
            (Datacutter.Filter.buffer_size b' < Datacutter.Filter.buffer_size b))

let test_sink_collects_result () =
  let plan = make_plan default_assignment in
  let got = ref [] in
  let topo, results =
    Codegen.build_topology plan ~widths:[| 1; 1; 1 |]
      ~powers:[| 1e6; 1e6; 1e6 |] ~bandwidths:[| 1e6; 1e6 |] ()
  in
  ignore got;
  ignore (sim_run topo);
  match List.assoc "acc" (results ()) with
  | V.Vobject o ->
      A.(check bool) "accumulated something" true
        (V.as_float (V.field o "x") > 0.0)
  | _ -> A.fail "expected object"

let test_build_topology_validates_widths () =
  let plan = make_plan default_assignment in
  A.check_raises "width mismatch"
    (Invalid_argument "build_topology: widths/units mismatch") (fun () ->
      ignore
        (Codegen.build_topology plan ~widths:[| 1; 1 |]
           ~powers:[| 1e6; 1e6; 1e6 |] ~bandwidths:[| 1e6; 1e6 |] ()));
  A.check_raises "sink width"
    (Invalid_argument "build_topology: the sink stage must have width 1")
    (fun () ->
      ignore
        (Codegen.build_topology plan ~widths:[| 1; 1; 2 |]
           ~powers:[| 1e6; 1e6; 1e6 |] ~bandwidths:[| 1e6; 1e6 |] ()))

let test_pass_through_unit () =
  (* assignment leaving unit 2 empty: it must forward untouched *)
  let plan = make_plan [| 1; 1; 1; 3 |] in
  let f2 = Codegen.make_filter plan ~u:2 0 in
  let b = Datacutter.Filter.make_buffer ~packet:0 (Bytes.of_string "payload") in
  let out, cost = f2.Datacutter.Filter.process b in
  (match out with
  | Some b' -> A.(check bool) "same buffer" true (b' == b)
  | None -> A.fail "pass-through must forward");
  A.(check bool) "forwarding cost" true (cost > 0.0)

let test_eos_payload_roundtrip () =
  (* the merge unit's partial reaches the sink even with all compute on
     unit 1 *)
  let plan = make_plan ~m:3 [| 1; 1; 1; 1 |] in
  let topo, results =
    Codegen.build_topology plan ~widths:[| 2; 1; 1 |]
      ~powers:[| 1e6; 1e6; 1e6 |] ~bandwidths:[| 1e6; 1e6 |] ()
  in
  ignore (sim_run topo);
  (* compare against reference *)
  let prog = Compile.front_end ~externs_sig src in
  let ctx =
    Interp.create_ctx ~externs:[ read_ps ]
      ~runtime_defs:[ ("num_packets", num_packets) ]
      prog
  in
  let genv = Interp.run_reference ctx in
  let ref_x =
    match Interp.global_value genv "acc" with
    | V.Vobject o -> V.as_float (V.field o "x")
    | _ -> A.fail "expected object"
  in
  match List.assoc "acc" (results ()) with
  | V.Vobject o ->
      A.(check (float 1e-9)) "partials merged" ref_x (V.as_float (V.field o "x"))
  | _ -> A.fail "expected object"


let test_emit_plan_structure () =
  let plan = make_plan default_assignment in
  let text = Emit.emit_plan plan in
  let has frag = Astring.String.is_infix ~affix:frag text in
  A.(check bool) "three filters" true
    (has "filter C1" && has "filter C2" && has "filter C3");
  A.(check bool) "source role" true (has "source (reads the repository)");
  A.(check bool) "sink role" true (has "sink (views the results)");
  A.(check bool) "unpack section" true (has "unpack input buffer:");
  A.(check bool) "pack section" true (has "pack output buffer:");
  A.(check bool) "segments printed" true (has "foreach (t in");
  A.(check bool) "reduction shipping" true (has "ship partial reduction state");
  A.(check bool) "sink merge" true (has "merge every incoming partial")

let test_emit_fieldwise_column_shown () =
  (* layout grouping should surface in the rendering when a field passes
     through the receiving filter *)
  let plan = make_plan [| 1; 2; 3; 3 |] in
  let text = Emit.emit_plan plan in
  A.(check bool) "mentions a layout loop" true
    (Astring.String.is_infix ~affix:"for i in 0 .. count(" text)

let suite =
  [
    ("plan cuts", `Quick, test_plan_cuts);
    ("segments of unit", `Quick, test_segments_of_unit);
    ("reduc updated", `Quick, test_reduc_updated);
    ("source generates all packets", `Quick, test_source_generates_all_packets);
    ("source sharding", `Quick, test_source_sharding);
    ("filter processes buffer", `Quick, test_filter_processes_buffer);
    ("sink collects result", `Quick, test_sink_collects_result);
    ("topology validation", `Quick, test_build_topology_validates_widths);
    ("pass-through unit", `Quick, test_pass_through_unit);
    ("emit plan structure", `Quick, test_emit_plan_structure);
    ("emit fieldwise column", `Quick, test_emit_fieldwise_column_shown);
    ("eos payload roundtrip", `Quick, test_eos_payload_roundtrip);
  ]

let () = Alcotest.run "codegen" [ ("codegen", suite) ]

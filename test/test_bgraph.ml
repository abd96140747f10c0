(* Tests for the candidate filter boundary graph (§4.1): construction,
   flow paths, and ReqComm over the DAG. *)

module A = Alcotest
open Core
open Lang

let prog_of body =
  Parser.parse
    (Printf.sprintf
       {|
class T { float a; float b; bool keep; }
class R implements Reducinterface {
  float x;
  void merge(R other) { this.x = this.x + other.x; }
}
R acc = new R();
pipelined (p in [0 : 4]) { %s }
|}
       body)

let graph_of body =
  let prog = prog_of body in
  (prog, Bgraph.build prog.Ast.pipeline.Ast.pd_body)

let chain_body =
  "List<T> ts = read_ts(p); R local = new R(); foreach (t in ts) { local.x \
   += t.a; } acc.merge(local);"

let branch_body =
  {|
  List<T> ts = read_ts(p);
  R local = new R();
  if (p % 2 == 0) {
    foreach (t in ts) { local.x += t.a; }
  } else {
    foreach (t in ts) { local.x += t.b; }
  }
  acc.merge(local);
|}

let test_chain_is_chain () =
  let _, g = graph_of chain_body in
  A.(check bool) "chain" true (Bgraph.is_chain g);
  A.(check int) "one flow path" 1 (List.length (Bgraph.flow_paths g));
  (* read(+decl) | foreach | merge *)
  A.(check int) "three edges" 3 (List.length g.Bgraph.edges)

let test_branch_forks () =
  let _, g = graph_of branch_body in
  A.(check bool) "not a chain" false (Bgraph.is_chain g);
  A.(check int) "two flow paths" 2 (List.length (Bgraph.flow_paths g))

let test_flow_paths_start_to_end () =
  let _, g = graph_of branch_body in
  List.iter
    (fun path ->
      A.(check int) "starts at start" g.Bgraph.start (List.hd path).Bgraph.e_src;
      A.(check int) "ends at end" g.Bgraph.stop
        (List.nth path (List.length path - 1)).Bgraph.e_dst;
      (* consecutive edges connect *)
      ignore
        (List.fold_left
           (fun prev (e : Bgraph.edge) ->
             (match prev with
             | Some (p : Bgraph.edge) ->
                 A.(check int) "connected" p.Bgraph.e_dst e.Bgraph.e_src
             | None -> ());
             Some e)
           None path))
    (Bgraph.flow_paths g)

let test_atomic_conditional_stays_chain () =
  (* a conditional without boundary-worthy statements stays atomic *)
  let _, g =
    graph_of
      "List<T> ts = read_ts(p); int n = 0; if (p > 0) { n = 1; } R local = \
       new R(); foreach (t in ts) { local.x += t.a; } acc.merge(local);"
  in
  A.(check bool) "chain" true (Bgraph.is_chain g)

let test_reqcomm_union_at_fork () =
  let prog, g = graph_of branch_body in
  let _, r = Bgraph.reqcomm prog g in
  (* at the node entering the branch (the fork), both branches' needs are
     present: t.a for the then-branch, t.b for the else-branch *)
  let fork =
    (* the fork node is the destination of the edge carrying the read *)
    let first = List.hd (Bgraph.out_edges g g.Bgraph.start) in
    first.Bgraph.e_dst
  in
  A.(check bool) "ts.a needed" true
    (Varset.mem (Varset.ElemField ("ts", "a")) r.(fork));
  A.(check bool) "ts.b needed" true
    (Varset.mem (Varset.ElemField ("ts", "b")) r.(fork));
  (* nothing remains at the end node *)
  A.(check bool) "end empty" true (Varset.is_empty r.(g.Bgraph.stop))

let test_reqcomm_chain_matches_linear_analysis () =
  (* on a chain the graph propagation must agree with the linear one *)
  let prog, g = graph_of chain_body in
  let _, r = Bgraph.reqcomm prog g in
  let rc = Reqcomm.analyze prog in
  (* walk the unique flow path: the node entering edge k is boundary k *)
  let path = List.hd (Bgraph.flow_paths g) in
  List.iteri
    (fun k (e : Bgraph.edge) ->
      A.(check bool)
        (Printf.sprintf "boundary %d agrees" k)
        true
        (Varset.equal r.(e.Bgraph.e_src) (Reqcomm.reqcomm_into rc k)))
    path;
  A.(check bool) "end agrees" true
    (Varset.equal r.(g.Bgraph.stop)
       (Reqcomm.reqcomm_into rc (List.length path)))

let test_nested_branch () =
  let _, g =
    graph_of
      {|
  List<T> ts = read_ts(p);
  R local = new R();
  if (p > 1) {
    foreach (t in ts) { local.x += t.a; }
    if (p > 2) {
      foreach (t in ts) { local.x += t.b; }
    }
  }
  acc.merge(local);
|}
  in
  (* outer then-branch itself forks: 2 inner paths + the outer else *)
  A.(check int) "three flow paths" 3 (List.length (Bgraph.flow_paths g))

(* --- property: per-path linear propagation is covered by the graph --- *)

(* random nested structure of foreach segments and branches *)
type shape = Leaf of int | Seq of shape list | Branch of shape * shape

let rec shape_to_body = function
  | Leaf k ->
      Printf.sprintf "foreach (t in ts) { local.x += t.%s; }"
        (if k mod 2 = 0 then "a" else "b")
  | Seq parts -> String.concat "\n" (List.map shape_to_body parts)
  | Branch (th, el) ->
      Printf.sprintf "if (p %% 2 == 0) {\n%s\n} else {\n%s\n}"
        (shape_to_body th) (shape_to_body el)

let rec count_paths = function
  | Leaf _ -> 1
  | Seq parts -> List.fold_left (fun acc s -> acc * count_paths s) 1 parts
  | Branch (a, b) -> count_paths a + count_paths b

let gen_shape =
  QCheck.Gen.(
    fix
      (fun self n ->
        if n <= 0 then map (fun k -> Leaf k) small_int
        else
          frequency
            [
              (2, map (fun k -> Leaf k) small_int);
              ( 2,
                map (fun parts -> Seq parts)
                  (list_size (1 -- 3) (self (n - 1))) );
              (1, map2 (fun a b -> Branch (a, b)) (self (n - 1)) (self (n - 1)));
            ])
      2)

let rec shape_print = function
  | Leaf k -> Printf.sprintf "L%d" k
  | Seq parts -> "(" ^ String.concat ";" (List.map shape_print parts) ^ ")"
  | Branch (a, b) -> "[" ^ shape_print a ^ "|" ^ shape_print b ^ "]"

let prop_flow_path_count =
  QCheck.Test.make ~name:"flow path count matches structure" ~count:100
    (QCheck.make gen_shape ~print:shape_print)
    (fun shape ->
      let body =
        Printf.sprintf
          "List<T> ts = read_ts(p); R local = new R();\n%s\nacc.merge(local);"
          (shape_to_body shape)
      in
      let _, g = graph_of body in
      List.length (Bgraph.flow_paths g) = count_paths shape)

let prop_path_reqcomm_covered =
  QCheck.Test.make ~name:"per-path reqcomm covered by graph reqcomm"
    ~count:60
    (QCheck.make gen_shape ~print:shape_print)
    (fun shape ->
      let body =
        Printf.sprintf
          "List<T> ts = read_ts(p); R local = new R();\n%s\nacc.merge(local);"
          (shape_to_body shape)
      in
      let prog, g = graph_of body in
      let _, r = Bgraph.reqcomm prog g in
      let global it =
        List.exists
          (fun gd -> gd.Ast.gd_name = Varset.base it)
          prog.Ast.globals
      in
      let ctx =
        Gencons.create_ctx prog
          (List.concat_map (fun e -> e.Bgraph.e_code) g.Bgraph.edges)
      in
      List.for_all
        (fun path ->
          (* walk the path backward, accumulating the linear reqcomm *)
          let linear = Hashtbl.create 8 in
          let acc = ref Varset.empty in
          List.iter
            (fun (e : Bgraph.edge) ->
              Hashtbl.replace linear e.Bgraph.e_dst !acc;
              let gen, cons = Gencons.analyze_segment ctx e.Bgraph.e_code in
              acc :=
                Varset.union (Varset.diff !acc gen)
                  (Varset.filter (fun it -> not (global it)) cons);
              Hashtbl.replace linear e.Bgraph.e_src !acc)
            (List.rev path);
          (* every item the path needs at a node is present in the graph's
             set at that node *)
          Hashtbl.fold
            (fun node vs ok ->
              ok
              && List.for_all
                   (fun item -> Varset.mem item r.(node))
                   (Varset.items vs))
            linear true)
        (Bgraph.flow_paths g))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_flow_path_count; prop_path_reqcomm_covered ]

let suite =
  qsuite
  @ [
    ("chain is chain", `Quick, test_chain_is_chain);
    ("branch forks", `Quick, test_branch_forks);
    ("flow paths connect", `Quick, test_flow_paths_start_to_end);
    ("atomic conditional stays chain", `Quick, test_atomic_conditional_stays_chain);
    ("reqcomm union at fork", `Quick, test_reqcomm_union_at_fork);
    ("reqcomm chain matches linear", `Quick, test_reqcomm_chain_matches_linear_analysis);
    ("nested branch", `Quick, test_nested_branch);
  ]

let () = Alcotest.run "bgraph" [ ("bgraph", suite) ]

(* Quickstart: compile and run a small PipeLang program from scratch.

   The program computes a histogram over a synthetic stream: the data
   host reads packets of samples, a filter stage discards out-of-range
   samples, and a reduction accumulates per-bucket counts.  The compiler
   chooses where to cut the pipeline; we run the result on the simulated
   cluster and on real domains, and check it against the sequential
   reference semantics.

     dune exec examples/quickstart.exe                                   *)

open Core
module H = Apps.Harness
module V = Lang.Value

(* 1. The program, in the paper's dialect: a reduction class (associative
   and commutative merge), a foreach with a where clause (compaction),
   and a pipelined loop over packets. *)
let source =
  {|
class Sample {
  float value;
}

class Hist implements Reducinterface {
  int buckets;
  int[] count;
  void merge(Hist other) {
    for (int i = 0; i < this.buckets; i = i + 1) {
      this.count[i] = this.count[i] + other.count[i];
    }
  }
}

Hist make_hist(int buckets) {
  Hist h = new Hist();
  h.buckets = buckets;
  h.count = new int[buckets];
  for (int i = 0; i < buckets; i = i + 1) {
    h.count[i] = 0;
  }
  return h;
}

Hist histogram = make_hist(10);

pipelined (p in [0 : runtime_define num_packets]) {
  List<Sample> samples = read_samples(p);
  List<Sample> valid = new List<Sample>();
  foreach (s in samples where s.value >= 0.0 && s.value < 1.0) {
    valid.add(s);
  }
  Hist local = make_hist(10);
  foreach (s in valid) {
    int b = int_of_float(s.value * 10.0);
    local.count[b] = local.count[b] + 1;
  }
  histogram.merge(local);
}
|}

(* 2. The data source: a host function producing deterministic synthetic
   samples (a quarter of them out of range). *)
let read_samples : string * Lang.Interp.extern_fn =
  ( "read_samples",
    fun ctx args ->
      let p = V.as_int (List.hd args) in
      let sample = Lang.Interp.class_decl ctx "Sample" in
      let make = V.maker sample and slot = V.float_slot sample "value" in
      let vec = V.Vec.create () in
      for i = 0 to 999 do
        let u = Apps.Prng.hash_float 7 ((p * 1000) + i) in
        let value = (u *. 1.3) -. 0.15 (* some fall outside [0, 1) *) in
        let o = make () in
        o.V.floats.(slot) <- value;
        V.Vec.push vec (V.Vobject o)
      done;
      ctx.Lang.Interp.counter.Lang.Opcount.mem_ops <-
        ctx.Lang.Interp.counter.Lang.Opcount.mem_ops + 8000;
      V.Vlist vec )

let externs_sig =
  [
    Lang.Typecheck.
      {
        ex_name = "read_samples";
        ex_params = [ Lang.Ast.Tint ];
        ex_ret = Lang.Ast.Tlist (Lang.Ast.Tclass "Sample");
      };
  ]

let app =
  {
    H.name = "quickstart";
    source;
    externs_sig;
    externs = [ read_samples ];
    runtime_defs = [];
    num_packets = 16;
    source_externs = [ "read_samples" ];
  }

let run ?backend compiled ~widths =
  Datacutter.Supervisor.ok_exn
    (H.run_compiled ?backend compiled ~cluster:H.default_cluster ~widths)

let () =
  (* 3. Compile for the calibrated cluster (data host, compute node,
     desktop) at 2 data + 2 compute nodes. *)
  let widths = [| 2; 2; 1 |] in
  let compiled = H.compile ~widths app in
  Fmt.pr "--- decomposition chosen by the compiler ---@.%a@."
    Compile.pp_summary compiled;

  (* 4. Run it on the simulated cluster, as [cgppc run] would. *)
  let metrics, results = run compiled ~widths in
  Fmt.pr "--- simulated 2-2-1 run ---@.%a@."
    Datacutter.Runtime.pp_metrics metrics;

  (* 5. Check against the sequential reference semantics. *)
  let reference = Compile.run_reference compiled in
  let counts v =
    match v with
    | V.Vobject o -> V.as_array (V.field o "count") |> Array.map V.as_int
    | _ -> assert false
  in
  let sim = counts (List.assoc "histogram" results) in
  let ref_ = counts (List.assoc "histogram" reference) in
  Fmt.pr "--- histogram ---@.";
  Array.iteri
    (fun i c ->
      Fmt.pr "  [%d.%d, %d.%d): %5d %s@." (i / 10) (i mod 10) ((i + 1) / 10)
        ((i + 1) mod 10) c
        (String.make (c / 100) '#'))
    sim;
  Fmt.pr "matches sequential reference: %b@." (sim = ref_);

  (* 6. The same filters also run on real domains. *)
  let par, par_results = run ~backend:Datacutter.Runtime.Par compiled ~widths in
  let domains =
    match List.assoc_opt "runners" par.Datacutter.Engine.extra with
    | Some r -> Obs.Json.to_int (Obs.Json.member "domains" r)
    | None -> 0
  in
  let par_ok = counts (List.assoc "histogram" par_results) = ref_ in
  Fmt.pr "--- parallel run, 5 copies on %d domains: %.3fs wall, matches: %b ---@."
    domains par.Datacutter.Engine.elapsed_s par_ok;
  if not (sim = ref_ && par_ok) then exit 1

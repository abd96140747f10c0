(* Smoke test for a proc run whose worker setup runs out of resources,
   wired into `dune runtest` via the @setup-smoke alias.  The dune rule
   starts it under `ulimit -n 64`, so every worker channel (two fds
   while forking, one kept by the parent) eats into a small budget.

   - In process: the descriptors left over are used up until only a
     few workers fit, then a wide topology is run.  The run must return
     [Setup_failed] after reaping every worker it forked: no child is
     left (waitpid reports ECHILD), every channel fd is closed again,
     and SIGPIPE is back to its previous disposition.
   - Through the CLI: `cgppc run --backend proc` under `ulimit -n 32`
     on a topology needing more descriptors than that allows exits
     with the documented code 9 and a "setup_failed" error in the
     metrics JSON.
   - A par run, after both proc legs (a par run may spawn domains, after
     which a process cannot fork): with no descriptor left for the pipe
     it waits on, the run returns [Setup_failed], and `cgppc run
     --backend par` under `ulimit -n 4` exits 9.  Neither message
     speaks of a worker, since a par run forks none.

   The cgppc binary path arrives as argv(1).  Skips gracefully without
   Unix.fork, shared-memory rings or /proc.  One proc run per process: the
   backend forks before it spawns domains. *)

module D = Datacutter
module J = Obs.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("setup-smoke: " ^ m);
      exit 1)
    fmt

let cgppc =
  if Array.length Sys.argv < 2 then die "usage: setup_smoke CGPPC_EXE"
  else Sys.argv.(1)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Source width 2 and a width-4 inner stage with 3 spares per copy:
   18 workers, 18 parent-side fds. *)
let topology () =
  let source _ =
    {
      D.Filter.src_name = "src";
      next = (fun () -> None);
      src_finalize = (fun () -> (None, 0.0));
    }
  in
  let stage stage_name width role =
    { D.Topology.stage_name; width; power = 100.0; role }
  in
  let link = { D.Topology.bandwidth = 1e6; latency = 0.0 } in
  D.Topology.create
    ~stages:
      [
        stage "src" 2 (D.Topology.Source source);
        stage "mid" 4 (D.Topology.Inner (fun _ -> D.Filter.pass_through "mid"));
        stage "sink" 1 (D.Topology.Sink (fun _ -> D.Filter.pass_through "sink"));
      ]
    ~links:[ link; link ]

(* Hold every descriptor the limit still allows, minus [spare]. *)
let exhaust_fds ~spare =
  let rec grab acc n =
    if n > 4096 then die "no EMFILE after 4096 descriptors: is the limit set?"
    else
      match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
      | fd -> grab (fd :: acc) (n + 1)
      | exception Unix.Unix_error (Unix.EMFILE, _, _) -> acc
  in
  let held = grab [] 0 in
  let rec release k l =
    match l with
    | fd :: rest when k > 0 ->
        Unix.close fd;
        release (k - 1) rest
    | l -> l
  in
  release spare held

let in_process_leg () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_default);
  (* room for about seven workers: each keeps one fd, and needs two
     more while it forks *)
  let hogs = exhaust_fds ~spare:10 in
  let before = open_fds () in
  (match D.Runtime.run_result ~backend:D.Runtime.Proc (topology ()) with
  | Error (D.Supervisor.Setup_failed _) -> ()
  | Error e ->
      die "expected Setup_failed, got: %s"
        (Fmt.str "%a" D.Supervisor.pp_run_error e)
  | Ok _ -> die "run succeeded with no descriptors left for its workers");
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> die "a worker outlived the failed run");
  let after = open_fds () in
  if after <> before then
    die "%d descriptors open after the failed run, %d before" after before;
  (match Sys.signal Sys.sigpipe Sys.Signal_default with
  | Sys.Signal_default -> ()
  | _ -> die "SIGPIPE disposition not restored");
  List.iter Unix.close hogs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* 8 source workers + 8 inner copies x 4 workers = 40 channels, one
   parent-side fd each, under a limit of 32. *)
let cli_leg () =
  let mj = Filename.temp_file "cgpp_setup_smoke" ".json" in
  let log = Filename.temp_file "cgpp_setup_smoke" ".log" in
  let rc =
    Sys.command
      (Printf.sprintf
         "(ulimit -n 32 && exec %s run -a streambench --backend proc -c 8-8-1 \
          --metrics-json %s) > %s 2>&1"
         (Filename.quote cgppc) (Filename.quote mj) (Filename.quote log))
  in
  let out = read_file log in
  let doc = try J.parse_result (read_file mj) with Sys_error _ -> Error "" in
  Sys.remove mj;
  Sys.remove log;
  if rc <> 9 then begin
    prerr_string out;
    die "cgppc run under a low fd limit exited %d, expected 9" rc
  end;
  match doc with
  | Ok doc when J.to_str (J.member "kind" (J.member "error" doc)) = "setup_failed"
    ->
      ()
  | _ -> die "metrics JSON does not carry a \"setup_failed\" error"

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec find i = i + m <= n && (String.sub hay i m = needle || find (i + 1)) in
  find 0

let par_leg () =
  let hogs = exhaust_fds ~spare:0 in
  let result = D.Runtime.run_result ~backend:D.Runtime.Par (topology ()) in
  List.iter Unix.close hogs;
  (match result with
  | Error (D.Supervisor.Setup_failed _ as e) ->
      let msg = Fmt.str "%a" D.Supervisor.pp_run_error e in
      if contains msg "worker" then die "par setup error names a worker: %s" msg
  | Error e ->
      die "par: expected Setup_failed, got: %s"
        (Fmt.str "%a" D.Supervisor.pp_run_error e)
  | Ok _ -> die "par run succeeded with no descriptor left for its pipe");
  let log = Filename.temp_file "cgpp_setup_smoke" ".log" in
  let rc =
    Sys.command
      (Printf.sprintf "(ulimit -n 4 && exec %s run -a knn --backend par) > %s 2>&1"
         (Filename.quote cgppc) (Filename.quote log))
  in
  let out = read_file log in
  Sys.remove log;
  if rc <> 9 then begin
    prerr_string out;
    die "cgppc run --backend par under ulimit -n 4 exited %d, expected 9" rc
  end;
  if contains out "worker" then die "par setup error names a worker: %s" out

let () =
  if
    not
      (D.Proc_runtime.available && D.Shm.available ()
     && Sys.file_exists "/proc/self/fd")
  then begin
    print_endline
      "setup-smoke skipped: no Unix.fork, shared-memory rings or /proc";
    exit 0
  end;
  in_process_leg ();
  cli_leg ();
  par_leg ();
  print_endline
    "setup-smoke ok: failed worker setup reaped its workers and exited 9; a \
     par run without its pipe exited 9"

(* perfbench: the repository's performance benchmark.

   One process runs one workload for a fixed wall-clock budget and
   prints, as the last line of standard output, one JSON object:

     {"correct": bool, "attempted": int, "failed": int,
      "metrics": {"<name>": {"value": float, "unit": string}, ...}}

   With [--trace 0] the metrics are the end-to-end ones; with
   [--trace 1] the run also records span totals ([Obs.Metrics]) and
   fixed-work layer passes, and the metrics are the per-layer ones.
   README.md in this directory lists every metric, its definition, and
   which end-to-end metric each layer metric should move on which
   workload.

   Usage:
     main.exe --workload offline_draw|daemon_mix
              --seed N --seconds S --trace 0|1

   The benchmark only calls the library's public entry points: it
   always passes an explicit [~jobs], never selects the reference
   solver paths, sends daemon traffic through [Service.Client] and
   builds requests as functional updates of
   [Service.Wire.default_sample_req]. *)

module Unigen = Sampling.Unigen
module Sampler = Sampling.Sampler
module Wire = Service.Wire
module Client = Service.Client

(* ------------------------------------------------------------------ *)
(* Arguments *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, " offline_draw | daemon_mix");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := s), " measured wall-clock budget");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        " 1: per-layer metrics from a traced run; 0: end-to-end metrics" );
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let now = Unix.gettimeofday
let epsilon = Wire.default_sample_req.Wire.epsilon

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let formula_of name =
  match Workload.Suite.by_name name with
  | Some i -> Lazy.force i.Workload.Suite.formula
  | None -> failwith ("perfbench: unknown instance " ^ name)

(* Peak resident set of a live process, from the kernel's high-water
   mark. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> fi kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "perfbench: no VmHWM in /proc status"
  in
  scan ()

(* A fixed integer loop: its wall time tells a slow host apart from a
   slow program. Diagnostic only; it never scales a metric. *)
let ref_loop_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 50_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.0

(* ------------------------------------------------------------------ *)
(* Results *)

let attempted = ref 0
let failed = ref 0
let errors = ref []
let metrics : (string * float * string) list ref = ref []

let fail fmt =
  Printf.ksprintf (fun msg -> errors := msg :: !errors; prerr_endline ("perfbench: CHECK FAILED: " ^ msg)) fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* [n] states the sample count behind a percentile or mean. *)
let metric ?n name value unit_ =
  metrics := (name, value, unit_) :: !metrics;
  Printf.printf "  %-36s %14.4f %-7s%s\n%!" name value unit_
    (match n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let digest_hex parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let witness_line lits = String.concat " " (List.map string_of_int lits)

let estimate_line name e = Printf.sprintf "%s %h" name e

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    fail "non-finite metric value";
    "0"
  end

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_result () =
  let fields =
    List.rev_map
      (fun (name, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float v) (json_string u))
      !metrics
  in
  let correct = !errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields);
  correct

(* ------------------------------------------------------------------ *)
(* Set-up repetitions: every workload sets itself up [setup_reps]
   times and reports the median, so [setup_s] is steady. *)

let setup_reps = 3

let repeated_setup f =
  let runs = List.init setup_reps (fun rep -> time (fun () -> f rep)) in
  let last, _ = List.nth runs (setup_reps - 1) in
  (last, median (List.map snd runs), List.map fst runs)

(* ------------------------------------------------------------------ *)
(* Per-layer passes (traced runs only) *)

type ctx = {
  name : string;
  formula : Cnf.Formula.t;
  prepare_seed : int;
  prepared : Unigen.prepared;
  prepare_s : float;  (** wall time of the [Unigen.prepare] call *)
}

let hashed ctxs = List.filter (fun c -> not (Unigen.is_easy c.prepared)) ctxs

let fresh_copy c = Unigen.import ~formula:c.formula (Unigen.export c.prepared)

let counter snap name =
  match List.assoc_opt name snap.Obs.Metrics.counters with Some n -> n | None -> 0

let hist snap name =
  match List.assoc_opt name snap.Obs.Metrics.histograms with
  | Some h -> (h.Obs.Metrics.Hist.count, h.Obs.Metrics.Hist.sum)
  | None -> (0, 0.0)

let span snap name = hist snap (Obs.Metrics.span_prefix ^ name)

(* Counter and histogram deltas across [f] (recording is on in traced
   runs). *)
let recorded f =
  let before = Obs.Metrics.snapshot () in
  let r = f () in
  let after = Obs.Metrics.snapshot () in
  let dc name = counter after name - counter before name in
  let dh name =
    let c1, s1 = hist after name and c0, s0 = hist before name in
    (c1 - c0, s1 -. s0)
  in
  (r, dc, dh)

let untraced f =
  let was = Obs.Metrics.is_enabled () in
  Obs.Metrics.disable ();
  Fun.protect ~finally:(fun () -> if was then Obs.Metrics.enable ()) f

let draws_per_formula = 12

(* The same [draws_per_formula] draws of every hashed formula, run
   twice on fresh imported copies of its preparation: once with
   recording off (wall time, allocation, [Sampler.run_stats]) and once
   with it on (span and counter deltas). Both are a pure function of
   the preparation and the seed, so every count repeats exactly. *)
let draw_layers ~seed ctxs =
  let ctxs = hashed ctxs in
  let pass copies =
    List.fold_left
      (fun (stats, ws) (c, p) ->
        let ws = ref ws in
        for i = 0 to draws_per_formula - 1 do
          let (outcome, st), w =
            words (fun () -> Unigen.sample_index ~max_attempts:20 ~seed p i)
          in
          (match outcome with
          | Ok m -> check (Cnf.Model.satisfies c.formula m) "%s: witness falsifies formula" c.name
          | Error _ -> ());
          Sampler.merge_into ~into:stats st;
          ws := !ws +. w
        done;
        (stats, !ws))
      (Sampler.fresh_stats (), 0.0)
      copies
  in
  let copies () = List.map (fun c -> (c, fresh_copy c)) ctxs in
  let untraced_pass () = untraced (fun () -> time (fun () -> pass (copies ()))) in
  let traced_pass () = recorded (fun () -> time (fun () -> pass (copies ()))) in
  let (st, alloc), a1 = untraced_pass () in
  let (_, b1), dc, dh = traced_pass () in
  (* two more pairs for the overhead estimate, the first in the other
     order so that neither side always runs first *)
  let untraced_wall () = snd (untraced_pass ()) in
  let traced_wall () =
    let (_, b), _, _ = traced_pass () in
    b
  in
  let b2 = traced_wall () in
  let a2 = untraced_wall () in
  let a3 = untraced_wall () in
  let b3 = traced_wall () in
  let produced = fi st.Sampler.samples_produced in
  let per x = ratio (fi x) produced in
  metric "unigen.attempts_per_witness" (per st.Sampler.samples_requested) "ratio";
  metric "unigen.alloc_kwords_per_witness" (ratio alloc produced /. 1000.0) "kwords";
  metric "solver.solve_calls_per_witness" (per (fst (dh (Obs.Metrics.span_prefix ^ "solver.solve")))) "count";
  metric "solver.conflicts_per_witness" (per st.Sampler.conflicts) "count";
  metric "solver.propagations_per_witness" (per st.Sampler.propagations) "count";
  metric "gauss.row_reductions_per_witness" (per (dc "solver.gauss_row_reductions")) "count";
  metric "bsat.models_per_witness" (per (dc "bsat.blocking_clauses")) "ratio";
  metric "hxor.avg_xor_len" (Sampler.average_xor_length st) "count";
  (a1 +. a2 +. a3, b1 +. b2 +. b3)

(* Replays one draw's cell per call: a fresh hash from the draw's
   hash-size range, then one [Bsat.Session.enumerate] with the draw's
   limit, on the benchmark's own session per formula. *)
let cell_replay ~seed ctxs =
  untraced @@ fun () ->
  let calls = ref 0 and t = ref 0.0 and w = ref 0.0 and hx_t = ref 0.0 and hx_n = ref 0 in
  List.iter
    (fun c ->
      match Unigen.q_range c.prepared with
      | None -> ()
      | Some (q_lo, q_hi) ->
          let rng = Rng.create (seed + Hashtbl.hash c.name) in
          let vars = Cnf.Formula.sampling_vars c.formula in
          let limit = int_of_float (Float.floor (Unigen.hi_thresh c.prepared)) + 1 in
          let session = Sat.Bsat.Session.create c.formula in
          for _ = 1 to 8 do
            let lo = max 1 q_lo in
            let m = lo + Rng.int rng (max 1 (q_hi - lo + 1)) in
            let h = Hashing.Hxor.sample rng ~vars ~m in
            let xors = Hashing.Hxor.constraints h in
            let (_, dw), dt =
              time (fun () ->
                  words (fun () -> Sat.Bsat.Session.enumerate ~xors ~limit session))
            in
            incr calls;
            t := !t +. dt;
            w := !w +. dw
          done;
          let m = max 1 q_hi in
          let (), dt =
            time (fun () ->
                for _ = 1 to 2000 do
                  ignore (Sys.opaque_identity (Hashing.Hxor.sample rng ~vars ~m))
                done)
          in
          hx_t := !hx_t +. dt;
          hx_n := !hx_n + 2000)
    ctxs;
  metric ~n:!calls "bsat.enumerate_ms" (ratio !t (fi !calls) *. 1000.0) "ms";
  metric ~n:!calls "bsat.alloc_kwords_per_call" (ratio !w (fi !calls) /. 1000.0) "kwords";
  metric ~n:!hx_n "hxor.sample_us" (ratio !hx_t (fi !hx_n) *. 1e6) "us"

let import_layer ctxs =
  let reps = 50 in
  let ts =
    List.map
      (fun c ->
        let e = Unigen.export c.prepared in
        snd (time (fun () ->
                 for _ = 1 to reps do
                   ignore (Sys.opaque_identity (Unigen.import ~formula:c.formula e))
                 done))
        /. fi reps)
      ctxs
  in
  metric ~n:(reps * List.length ctxs) "unigen.import_ms" (mean ts *. 1000.0) "ms"

(* ApproxMC with UniGen's parameters (tolerance 0.8, confidence 0.8)
   on each hashed preparation's own seed: the same count the
   preparation ran, so its estimate must match. *)
type count_probe = {
  count_s : float;
  alloc : float;
  conflicts : float;  (** easy-case check plus the count, as in [prepare] *)
  log2_error : float;
}

(* Span and counter totals of the traced preparations so far give
   ApproxMC's share and per-count work; a direct, untraced
   [Approxmc.count] with UniGen's parameters (tolerance 0.8, confidence
   0.8) and each preparation's seed gives its time, allocation and
   conflicts, and must reproduce the preparation's estimate. Span
   timing allocates depending on the clock, so allocation is only
   counted with recording off. *)
let count_layers ctxs =
  let ctxs = hashed ctxs in
  let snap = Obs.Metrics.snapshot () in
  let counts, count_total = span snap "approxmc.count" in
  let prepares, prepare_total = span snap "unigen.prepare" in
  let cells, cell_sum = hist snap "approxmc.cell_size" in
  let probe c =
    let limit = int_of_float (Float.floor (Unigen.hi_thresh c.prepared)) + 1 in
    let easy = Sat.Bsat.enumerate ~limit c.formula in
    let (r, alloc), count_s =
      time (fun () ->
          words (fun () ->
              Counting.Approxmc.count ~jobs:1 ~rng:(Rng.create c.prepare_seed) ~epsilon:0.8
                ~delta:0.8 c.formula))
    in
    match r with
    | Error _ ->
        fail "%s: Approxmc.count failed" c.name;
        None
    | Ok r ->
        check
          (r.Counting.Approxmc.estimate = Unigen.count_estimate c.prepared)
          "%s: ApproxMC replay estimate differs from the preparation's" c.name;
        let exact = fi (Counting.Exact_counter.count c.formula) in
        Some
          {
            count_s;
            alloc;
            conflicts =
              fi (easy.Sat.Bsat.conflicts + r.Counting.Approxmc.solver_stats.Sat.Solver.conflicts);
            log2_error =
              Float.abs (r.Counting.Approxmc.log2_estimate -. (Float.log exact /. Float.log 2.0));
          }
  in
  let results = untraced (fun () -> List.filter_map probe ctxs) in
  let n = List.length results in
  let avg f = mean (List.map f results) in
  metric ~n "approxmc.count_s" (avg (fun p -> p.count_s)) "s";
  metric ~n:prepares "approxmc.share_of_prepare" (ratio count_total prepare_total) "ratio";
  metric ~n:counts "approxmc.hash_sizes_per_count"
    (ratio (fi (counter snap "approxmc.hash_draws")) (fi counts))
    "count";
  metric ~n:cells "approxmc.cell_size_mean" (ratio cell_sum (fi cells)) "count";
  metric ~n "approxmc.alloc_mwords_per_count" (avg (fun p -> p.alloc) /. 1e6) "Mwords";
  metric ~n "solver.conflicts_per_prepare" (avg (fun p -> p.conflicts)) "count";
  metric ~n "approxmc.log2_error" (avg (fun p -> p.log2_error)) "log2"

(* Bsat self time over every span recorded in this traced process:
   session enumeration minus the solver and XOR-layer spans inside it. *)
let self_share_metric () =
  let snap = Obs.Metrics.snapshot () in
  let s name = snd (span snap name) in
  let total = s "bsat.session.enumerate" in
  let inner = s "solver.solve" +. s "xor_layer.push" +. s "xor_layer.pop" in
  metric "bsat.self_share" (ratio (total -. inner) total) "ratio";
  let n, solve = span snap "solver.solve" in
  metric ~n "solver.solve_us" (ratio solve (fi n) *. 1e6) "us"

(* Service, cache and store layers exist only behind the daemon;
   offline_draw reports them as 0 (not exercised). *)
let service_layer_names =
  [
    ("service.status_rtt_us", "us"); ("service.queue_wait_p50_ms", "ms");
    ("service.queue_wait_p90_ms", "ms"); ("service.residual_p50_ms", "ms");
    ("cache.ram_frac", "ratio"); ("cache.disk_frac", "ratio"); ("cache.miss_frac", "ratio");
    ("cache.ram_req_p50_ms", "ms"); ("cache.disk_req_p50_ms", "ms");
    ("cache.miss_req_p50_ms", "ms"); ("store.put_ms", "ms"); ("store.find_ms", "ms");
    ("store.entry_bytes", "bytes");
  ]

(* Per-layer metrics of the in-process work: the preparations [ctxs]
   and draws from them. *)
let offline_layers ~seed ctxs =
  let untraced_wall, traced_wall = draw_layers ~seed ctxs in
  cell_replay ~seed ctxs;
  import_layer ctxs;
  count_layers ctxs;
  self_share_metric ();
  metric "obs.trace_overhead_frac" (ratio traced_wall untraced_wall -. 1.0) "ratio"

(* ------------------------------------------------------------------ *)
(* Workload: offline_draw *)

let draw_names = [ "case_s1"; "sk_login"; "squaring_7" ]
let witnesses_per_request = 4
let min_rounds = 2

let prepare_ctx name prepare_seed =
  let formula = formula_of name in
  match
    time (fun () ->
        Unigen.prepare ~jobs:1 ~rng:(Rng.create prepare_seed) ~epsilon formula)
  with
  | Ok prepared, prepare_s -> { name; formula; prepare_seed; prepared; prepare_s }
  | Error _, _ -> failwith ("perfbench: prepare failed on " ^ name)

let offline_draw ~seed ~seconds =
  let ctxs, setup_s, all_reps =
    repeated_setup (fun _ -> List.map (fun n -> prepare_ctx n 1) draw_names)
  in
  let prepare_times = List.concat_map (List.map (fun c -> c.prepare_s)) all_reps in
  let ctxs = Array.of_list ctxs in
  let draw_ms = ref [] and req_ms = ref [] and witnesses = ref 0 and digest = ref [] in
  let t0 = now () in
  let round = ref 0 in
  while !round < min_rounds || now () -. t0 < seconds do
    Array.iteri
      (fun fi_ c ->
        let group = ref 0.0 in
        for j = 0 to witnesses_per_request - 1 do
          let index = (!round * witnesses_per_request) + j in
          let (outcome, _), dt =
            time (fun () ->
                Unigen.sample_index ~max_attempts:20 ~seed:((seed * 16) + fi_) c.prepared index)
          in
          incr attempted;
          group := !group +. dt;
          draw_ms := (dt *. 1000.0) :: !draw_ms;
          match outcome with
          | Ok m ->
              incr witnesses;
              check (Cnf.Model.satisfies c.formula m) "%s: witness %d falsifies formula" c.name index;
              if !round < min_rounds then
                digest := (c.name ^ " " ^ witness_line (Cnf.Model.to_dimacs m)) :: !digest
          | Error _ -> incr failed
        done;
        req_ms := (!group *. 1000.0) :: !req_ms)
      ctxs;
    incr round
  done;
  let wall = now () -. t0 in
  info "witness_digest %s (first %d draws per formula)" (digest_hex (List.sort compare !digest))
    (min_rounds * witnesses_per_request);
  info "estimate_digest %s"
    (digest_hex (Array.to_list (Array.map (fun c -> estimate_line c.name (Unigen.count_estimate c.prepared)) ctxs)));
  let ctxs = Array.to_list ctxs in
  if !trace then begin
    offline_layers ~seed ctxs;
    List.iter (fun (name, u) -> metric name 0.0 u) service_layer_names
  end
  else begin
    let nd = List.length !draw_ms and nr = List.length !req_ms in
    metric "setup_s" setup_s "s";
    metric "witnesses_per_s" (fi !witnesses /. wall) "1/s";
    metric ~n:nd "draw_p50_ms" (median !draw_ms) "ms";
    metric ~n:nd "draw_p90_ms" (percentile !draw_ms 0.9) "ms";
    metric ~n:(List.length prepare_times) "prepare_mean_s" (mean prepare_times) "s";
    metric ~n:nr "req_p50_ms" (median !req_ms) "ms";
    metric ~n:nr "req_p90_ms" (percentile !req_ms 0.9) "ms";
    metric "peak_rss_mb" (peak_rss_mb "self") "MB"
  end

(* ------------------------------------------------------------------ *)
(* Workload: daemon_mix *)

let easy_names = [ "squaring_5"; "squaring_6" ]
let daemon_names = easy_names @ [ "case_s1"; "case_s2"; "sk_login" ]
let daemon_jobs = 2
let daemon_cache = 3 (* prepared states in RAM: fewer than the formulas *)
let clients = 2
let checked_per_client = 6

(* The daemon's peak RSS is read after this many timed requests: it
   keeps growing with the requests served (about 100 MB after 450
   requests, 160-210 MB after 800-1000), so a reading at the end of the
   timed phase would track host speed. *)
let rss_after_requests = 300

(* Formulas whose daemon witnesses are compared with an offline
   recomputation: the ones whose preparation is cheap. *)
let checked_names = easy_names @ [ "sk_login" ]

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_root = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ()))

type daemon = { pid : int; socket_path : string; spill_dir : string }

let start_daemon rep =
  let socket_path = Filename.concat tmp_root (Printf.sprintf "d%d.sock" rep) in
  let spill_dir = Filename.concat tmp_root (Printf.sprintf "spill%d" rep) in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Service.Server.run
            {
              (Service.Server.default_config ~socket_path) with
              Service.Server.scheduler =
                {
                  Service.Scheduler.default_config with
                  Service.Scheduler.jobs = daemon_jobs;
                  cache_capacity = daemon_cache;
                  spill_dir = Some spill_dir;
                };
            };
          0
        with e ->
          prerr_endline ("perfbench daemon: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      let deadline = now () +. 30.0 in
      while (not (Sys.file_exists socket_path)) && now () < deadline do
        ignore (Unix.select [] [] [] 0.005)
      done;
      if not (Sys.file_exists socket_path) then failwith "perfbench: daemon did not start";
      { pid; socket_path; spill_dir }

let live_daemons = ref []

let stop_daemon d =
  let graceful =
    match Client.call ~socket_path:d.socket_path Wire.Shutdown with
    | Wire.Bye -> true
    | _ ->
        fail "daemon refused shutdown";
        false
    | exception e ->
        fail "daemon shutdown: %s" (Printexc.to_string e);
        false
  in
  if not graceful then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> if graceful then fail "daemon exited uncleanly");
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons

let kill_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid : int * Unix.process_status) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

type sent = {
  client : int;
  index : int;
  fname : string;
  req : Wire.sample_req;
  rtt_ms : float;
  resp : Wire.response;
}


(* Runs [f c] for every client c, client 0 on this thread and the
   others on their own threads; results in client order. *)
let in_parallel f =
  let results = Array.make clients None in
  let run c = results.(c) <- Some (try Ok (f c) with e -> Error e) in
  let others = List.init (clients - 1) (fun i -> Thread.create run (i + 1)) in
  run 0;
  List.iter Thread.join others;
  Array.to_list results
  |> List.map (function Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false)

let model_of_lits lits =
  Cnf.Model.of_bool_array (Array.of_list (List.map (fun l -> l > 0) lits))

let lits_ok num_vars lits =
  List.length lits = num_vars && List.for_all2 (fun i l -> abs l = i + 1) (List.init num_vars Fun.id) lits

let service_layers ~daemon ~log ~zero_req =
  (* a [status] round trip: wire and select loop, no solver *)
  let status_us =
    Client.with_connection ~socket_path:daemon.socket_path @@ fun conn ->
    List.init 100 (fun _ ->
        let resp, dt = time (fun () -> Client.request conn Wire.Status) in
        (match resp with Wire.Metrics _ -> () | _ -> fail "status request failed");
        dt *. 1e6)
  in
  metric ~n:100 "service.status_rtt_us" (median status_us) "us";
  let oks = List.filter_map (fun s -> match s.resp with Wire.Ok_sample ok -> Some (s, ok) | _ -> None) log in
  let waits = List.map (fun (_, ok) -> ok.Wire.queue_wait_s *. 1000.0) oks in
  let n = List.length oks in
  metric ~n "service.queue_wait_p50_ms" (median waits) "ms";
  metric ~n "service.queue_wait_p90_ms" (percentile waits 0.9) "ms";
  (* zero-witness requests on RAM-resident formulas: wire, JSON,
     DIMACS parse, registry and cache lookup without any draw *)
  let residual =
    Client.with_connection ~socket_path:daemon.socket_path @@ fun conn ->
    List.concat_map
      (fun name ->
        ignore (Client.request conn (Wire.Sample (zero_req name)) : Wire.response);
        List.init 8 (fun _ ->
            let resp, dt = time (fun () -> Client.request conn (Wire.Sample (zero_req name))) in
            (match resp with
            | Wire.Ok_sample { cache = Wire.Cache_ram; _ } -> ()
            | _ -> fail "zero-witness request on %s was not a RAM hit" name);
            dt *. 1000.0))
      daemon_names
  in
  metric ~n:(List.length residual) "service.residual_p50_ms" (median residual) "ms";
  let by src = List.filter (fun (_, ok) -> ok.Wire.cache = src) oks in
  List.iter
    (fun (label, src) ->
      let xs = by src in
      metric ~n:(List.length xs) ("cache." ^ label ^ "_frac") (ratio (fi (List.length xs)) (fi n)) "ratio";
      metric ~n:(List.length xs)
        ("cache." ^ label ^ "_req_p50_ms")
        (if xs = [] then 0.0 else median (List.map (fun (s, _) -> s.rtt_ms) xs))
        "ms")
    [ ("ram", Wire.Cache_ram); ("disk", Wire.Cache_disk); ("miss", Wire.Cache_miss) ]

(* Store calls on a private directory, with payloads the size of the
   daemon's average spilled entry. *)
let store_layer ~spill_dir =
  let spilled = Store.create ~dir:spill_dir () in
  let entry_bytes = Store.total_bytes spilled / max 1 (Store.length spilled) in
  let st = Store.create ~dir:(Filename.concat tmp_root "store") () in
  let payload = String.init entry_bytes (fun i -> Char.chr (i land 0xff)) in
  let keys = List.init 20 (Printf.sprintf "perfbench-%d") in
  let (), put_s = time (fun () -> List.iter (fun key -> Store.put st ~key payload) keys) in
  let (), find_s =
    time (fun () ->
        List.iter
          (fun key ->
            match Store.find st ~key with
            | Some p when p = payload -> ()
            | _ -> fail "store round trip lost an entry")
          keys)
  in
  metric ~n:20 "store.put_ms" (put_s /. 20.0 *. 1000.0) "ms";
  metric ~n:20 "store.find_ms" (find_s /. 20.0 *. 1000.0) "ms";
  metric ~n:(Store.length spilled) "store.entry_bytes" (fi entry_bytes) "bytes"

let daemon_mix ~seed ~seconds =
  let formulas = List.map (fun n -> (n, formula_of n)) daemon_names in
  let texts = List.map (fun (n, f) -> (n, Cnf.Dimacs.to_string f)) formulas in
  let sample_req ?(n = witnesses_per_request) ?(prepare_seed = 1) name draw_seed =
    {
      Wire.default_sample_req with
      Wire.formula_text = List.assoc name texts;
      n;
      seed = draw_seed;
      prepare_seed;
    }
  in
  let cold_ms = ref [] in
  (* set-up: start the daemon and prewarm it with one cold request per
     formula, the client connections splitting the formulas *)
  let daemon, setup_s, _ =
    repeated_setup (fun rep ->
        let d = start_daemon rep in
        live_daemons := d :: !live_daemons;
        ignore
          (in_parallel (fun c ->
               Client.with_connection ~socket_path:d.socket_path @@ fun conn ->
               List.iteri
                 (fun i name ->
                   if i mod clients = c then begin
                     let resp, dt = time (fun () -> Client.request conn (Wire.Sample (sample_req name 0))) in
                     (match resp with
                     | Wire.Ok_sample { cache = Wire.Cache_miss; _ } -> ()
                     | _ -> fail "prewarm request on %s was not a cold success" name);
                     cold_ms := (dt *. 1000.0) :: !cold_ms
                   end)
                 daemon_names)
            : unit list);
        if rep < setup_reps - 1 then stop_daemon d;
        d)
  in
  (* timed phase: closed loop, each client sends its next request only
     after the previous reply arrived *)
  let t0 = now () in
  let served = Atomic.make 0 and rss = ref Float.nan in
  let log =
    in_parallel (fun c ->
        let rng = Rng.create ((seed * 7) + c) in
        let log = ref [] in
        Client.with_connection ~socket_path:daemon.socket_path (fun conn ->
            (* every block of requests names each formula once, in a
               seeded order, and every fourth easy request carries a
               never-seen preparation seed (a cheap cold prepare that
               writes a new entry to the store): the mix is the same for
               every seed, only the order and draw seeds change *)
            let block = Array.of_list daemon_names in
            let easy_seen = ref (Rng.int rng 4) in
            let i = ref 0 in
            while now () -. t0 < seconds || Atomic.get served < rss_after_requests do
              if !i mod Array.length block = 0 then Rng.shuffle rng block;
              let name = block.(!i mod Array.length block) in
              let novel =
                List.mem name easy_names
                && (incr easy_seen;
                    !easy_seen mod 4 = 0)
              in
              let prepare_seed = if novel then 2 + c + (clients * !i) else 1 in
              let req = sample_req ~prepare_seed name (Rng.int rng 1_000_000_000) in
              let resp, dt = time (fun () -> Client.request conn (Wire.Sample req)) in
              log := { client = c; index = !i; fname = name; req; rtt_ms = dt *. 1000.0; resp } :: !log;
              if Atomic.fetch_and_add served 1 + 1 = rss_after_requests then
                rss := peak_rss_mb (string_of_int daemon.pid);
              incr i
            done);
        List.rev !log)
    |> List.concat
  in
  let wall = now () -. t0 in
  let witnesses = ref 0 and per_witness_ram = ref [] in
  List.iter
    (fun s ->
      incr attempted;
      match s.resp with
      | Wire.Ok_sample ok ->
          let f = List.assoc s.fname formulas in
          let num_vars = f.Cnf.Formula.num_vars in
          witnesses := !witnesses + List.length ok.Wire.witnesses;
          check (ok.Wire.produced = s.req.Wire.n) "%s: %d of %d witnesses" s.fname ok.Wire.produced s.req.Wire.n;
          List.iter
            (fun lits ->
              check (lits_ok num_vars lits && Cnf.Model.satisfies f (model_of_lits lits))
                "%s: daemon witness falsifies formula" s.fname)
            ok.Wire.witnesses;
          if ok.Wire.cache = Wire.Cache_ram && ok.Wire.produced > 0 then
            per_witness_ram := (s.rtt_ms /. fi ok.Wire.produced) :: !per_witness_ram
      | _ -> incr failed)
    log;
  let checked = List.filter (fun s -> s.index < checked_per_client) log in
  info "witness_digest %s (first %d requests per client)"
    (digest_hex
       (List.concat_map
          (fun s ->
            match s.resp with
            | Wire.Ok_sample ok ->
                List.map (fun w -> Printf.sprintf "%d %d %s" s.client s.index (witness_line w)) ok.Wire.witnesses
            | _ -> [ Printf.sprintf "%d %d failed" s.client s.index ])
          checked))
    checked_per_client;
  if !trace then service_layers ~daemon ~log ~zero_req:(fun name -> sample_req ~n:0 name 0);
  stop_daemon daemon;
  (* the offline reference: the first requests of each client on the
     checked formulas must match [Unigen.sample_batch ~jobs:1] on the
     same formula and seeds *)
  let prepared = Hashtbl.create 8 in
  let ctx_for name prepare_seed =
    match Hashtbl.find_opt prepared (name, prepare_seed) with
    | Some c -> c
    | None ->
        let c = prepare_ctx name prepare_seed in
        Hashtbl.add prepared (name, prepare_seed) c;
        c
  in
  info "estimate_digest %s"
    (digest_hex
       (List.map (fun n -> estimate_line n (Unigen.count_estimate (ctx_for n 1).prepared)) checked_names));
  List.iter
    (fun s ->
      match s.resp with
      | Wire.Ok_sample ok when List.mem s.fname checked_names ->
          let r = s.req in
          let c = ctx_for s.fname r.Wire.prepare_seed in
          let offline =
            Unigen.sample_batch ~jobs:1 ~max_attempts:r.Wire.max_attempts ~seed:r.Wire.seed
              c.prepared r.Wire.n
            |> Array.to_list
            |> List.filter_map (function Ok m -> Some (Cnf.Model.to_dimacs m) | Error _ -> None)
          in
          check (offline = ok.Wire.witnesses)
            "%s: daemon witnesses differ from offline sample_batch (client %d request %d)" s.fname
            s.client s.index
      | _ -> ())
    checked;
  if !trace then begin
    store_layer ~spill_dir:daemon.spill_dir;
    offline_layers ~seed (List.map (fun n -> ctx_for n 1) daemon_names)
  end
  else begin
    let rtts = List.map (fun s -> s.rtt_ms) log in
    let nr = List.length rtts and nw = List.length !per_witness_ram in
    metric "setup_s" setup_s "s";
    metric ~n:rss_after_requests "peak_rss_mb" !rss "MB";
    metric ~n:!witnesses "witnesses_per_s" (fi !witnesses /. wall) "1/s";
    metric ~n:nw "draw_p50_ms" (median !per_witness_ram) "ms";
    metric ~n:nw "draw_p90_ms" (percentile !per_witness_ram 0.9) "ms";
    metric ~n:(List.length !cold_ms) "prepare_mean_s" (mean !cold_ms /. 1000.0) "s";
    metric ~n:nr "req_p50_ms" (median rtts) "ms";
    metric ~n:nr "req_p90_ms" (percentile rtts 0.9) "ms"
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = !seconds in
  info "perfbench workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s" !workload seed seconds !trace
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let ref_start = ref_loop_ms () in
  if !trace then Obs.Metrics.enable ();
  let known =
    match !workload with
    | "offline_draw" -> Some offline_draw
    | "daemon_mix" -> Some daemon_mix
    | _ -> None
  in
  match known with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some run ->
      (try Unix.mkdir ".perfbench_tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Unix.mkdir tmp_root 0o755;
      let cleanup () =
        kill_daemons ();
        rm_rf tmp_root;
        try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ()
      in
      (match Fun.protect ~finally:cleanup (fun () -> run ~seed ~seconds) with
      | () -> ()
      | exception e -> fail "run aborted: %s" (Printexc.to_string e));
      let ref_end = ref_loop_ms () in
      if !trace then begin
        metric "host.ref_loop_ms_start" ref_start "ms";
        metric "host.ref_loop_ms_end" ref_end "ms"
      end
      else info "host.ref_loop_ms_start %.3f host.ref_loop_ms_end %.3f" ref_start ref_end;
      exit (if print_result () then 0 else 1)

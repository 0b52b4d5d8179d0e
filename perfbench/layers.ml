(* The traced run: per-layer numbers taken by timing calls into each
   layer's public functions from the benchmark's own code. Nothing inside
   the library is instrumented; every span here wraps one call made by
   the benchmark. *)

open Atomrep_history
open Atomrep_clock
open Atomrep_sim
open Atomrep_replica
open Atomrep_txn
module Monitors = Atomrep_chaos.Monitors
module Trace = Atomrep_obs.Trace
module Sitelat = Atomrep_obs.Sitelat
module Wal = Atomrep_store.Wal
module Rng = Atomrep_stats.Rng
module Serial_spec = Atomrep_spec.Serial_spec

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------- program passes through the public entry points ---------- *)

(* Each job runs in four traced/untraced pairs of identical
   configurations, the untraced side first in even pairs and the traced
   side first in odd ones, so that running first, and the process's cold
   first run in particular, costs neither side more than the other in
   the median tracing overhead. The first pair's runs are the ones the
   other metrics describe. *)
let overhead_pairs = 4

type program = {
  tally : Workloads.tally; (* the run that mirrors the timed end-to-end call *)
  others : Workloads.fingerprint list; (* per pair and side, summed over jobs *)
  run_s : float; (* Runtime.run wall in the mirroring run *)
  overhead : float list; (* per pair, traced / untraced Runtime.run wall *)
  minor_words : float; (* Gc.minor_words over the mirroring run *)
  events : int; (* trace events recorded by the first pair's traced run *)
  monitor_s : float;
  atomicity_s : float;
  script_s : float; (* time drawing transaction scripts in the mirroring run *)
}

let with_script_span spans (cfg : Runtime.config) =
  let script rng i = Spans.with_span spans "workload.script" (fun () -> cfg.Runtime.script rng i) in
  { cfg with Runtime.script }

let program_passes spans (jobs : Workloads.job list) =
  let tally = Workloads.empty_tally () in
  (* One tally per pair and side, for the fingerprint gate. *)
  let runs = Array.init (2 * overhead_pairs) (fun _ -> Workloads.empty_tally ()) in
  let traced_s = Array.make overhead_pairs 0.0 and untraced_s = Array.make overhead_pairs 0.0 in
  let run_s = ref 0.0 and minor = ref 0.0 and events = ref 0 in
  let monitor_s = ref 0.0 and atomicity_s = ref 0.0 in
  (* One run of [job]; [mirror] marks the run the metrics describe. *)
  let run_one job ~pair ~traced ~mirror =
    let cfg = job.Workloads.cfg in
    let cfg = if mirror then with_script_span spans cfg else cfg in
    let tr = if traced then Some (Trace.create ~n_sites:cfg.Runtime.n_sites ()) else None in
    let w0 = Gc.minor_words () in
    let name = if traced then "runtime.run_traced" else "runtime.run_untraced" in
    let outcome, dt =
      Spans.timed spans name (fun () -> Runtime.run { cfg with Runtime.trace = tr })
    in
    let words = Gc.minor_words () -. w0 in
    let sums = if traced then traced_s else untraced_s in
    sums.(pair) <- sums.(pair) +. dt;
    Workloads.add_outcome runs.((2 * pair) + Bool.to_int traced) job outcome [];
    if pair = 0 then begin
      (* The first pair's runs are judged as their entry point judges
         them: a traced run by the full monitor catalogue, as
         Campaign.check_run does, an untraced one by the history oracles. *)
      let failures =
        match tr with
        | Some tr ->
          events := !events + Trace.length tr;
          let violations, dt =
            Spans.timed spans "monitor.replay" (fun () ->
                Monitors.run Monitors.registry { Monitors.cfg; outcome } tr)
          in
          monitor_s := !monitor_s +. dt;
          Atomrep_obs.Spec_monitor.failures violations
        | None ->
          let failures, dt =
            Spans.timed spans "atomicity.check" (fun () ->
                Runtime.check_atomicity cfg outcome @ Runtime.check_common_order cfg outcome)
          in
          atomicity_s := !atomicity_s +. dt;
          failures
      in
      if mirror then begin
        run_s := !run_s +. dt;
        minor := !minor +. words;
        Workloads.add_outcome tally job outcome failures
      end
    end
  in
  List.iter
    (fun (job : Workloads.job) ->
      Spans.with_span spans "bench.job" (fun () ->
          match
            for pair = 0 to overhead_pairs - 1 do
              let traced_first = pair mod 2 = 1 in
              List.iter
                (fun traced ->
                  run_one job ~pair ~traced ~mirror:(pair = 0 && traced = job.monitored))
                [ traced_first; not traced_first ]
            done
          with
          | () -> ()
          | exception e -> Workloads.add_exception tally job e))
    jobs;
  {
    tally;
    others = Array.to_list (Array.map Workloads.fingerprint runs);
    run_s = !run_s;
    overhead = List.init overhead_pairs (fun p -> traced_s.(p) /. Float.max 1e-9 untraced_s.(p));
    minor_words = !minor;
    events = !events;
    monitor_s = !monitor_s;
    atomicity_s = !atomicity_s;
    script_s = Spans.total (Spans.spans spans) "workload.script";
  }

(* ---------- replica, spec and store layers driven directly ---------- *)

type shape = {
  scheme : Replicated.scheme;
  objects : Runtime.object_config list;
  script : Rng.t -> int -> Runtime.op_request list;
  n_txns : int;
  seed : int;
  durability : Repository.durability;
}

(* One shape per history the workload runs: its own types, schemes, seeds
   and lengths. *)
let shapes (jobs : Workloads.job list) =
  List.map
    (fun (job : Workloads.job) ->
      let cfg = job.cfg in
      {
        scheme = cfg.Runtime.scheme;
        objects = cfg.Runtime.objects;
        script = cfg.Runtime.script;
        n_txns = Workloads.submitted cfg;
        seed = cfg.Runtime.seed;
        durability = cfg.Runtime.durability;
      })
    jobs

type samples = {
  mutable execute_early : float list;
  mutable execute_late : float list;
  mutable merge_late : float list;
  mutable classify_early : float list;
  mutable classify_late : float list;
  mutable timeline_late : float list;
  mutable replay_late : float list;
  mutable legal_late : float list;
  mutable views : int;
  mutable view_records : int;
  mutable append_s : float;
  mutable appends : int;
  mutable wal_append_s : float;
  mutable wal_appends : int;
  mutable wal_flush_s : float;
  mutable wal_flushes : int;
  mutable wal_recover_s : float;
  mutable wal_recovered : int;
}

let empty_samples () =
  {
    execute_early = [];
    execute_late = [];
    merge_late = [];
    classify_early = [];
    classify_late = [];
    timeline_late = [];
    replay_late = [];
    legal_late = [];
    views = 0;
    view_records = 0;
    append_s = 0.0;
    appends = 0;
    wal_append_s = 0.0;
    wal_appends = 0;
    wal_flush_s = 0.0;
    wal_flushes = 0;
    wal_recover_s = 0.0;
    wal_recovered = 0;
  }

(* The view a front-end builds for one operation: merge every member's
   log (a fault-free gather hears from all of them), classify, then the
   scheme-specific spec work. Early and late eighths are timed per call. *)
let measure_view spans s obj spec window =
  let logs =
    List.init Workloads.n_sites (fun site -> Replicated.repository_log obj ~site)
  in
  let merged, merge_dt =
    Spans.timed spans "log.merge" (fun () -> List.fold_left Log.merge Log.empty logs)
  in
  s.views <- s.views + 1;
  s.view_records <- s.view_records + Log.size merged;
  match window with
  | `Mid -> ()
  | (`Early | `Late) as w ->
    let view, classify_dt = Spans.timed spans "view.classify" (fun () -> View.classify merged) in
    if w = `Early then s.classify_early <- classify_dt :: s.classify_early
    else begin
      s.merge_late <- merge_dt :: s.merge_late;
      s.classify_late <- classify_dt :: s.classify_late;
      let _, dt =
        Spans.timed spans "spec.replay" (fun () ->
            Serial_spec.run spec (View.committed_events view))
      in
      s.replay_late <- dt :: s.replay_late;
      let timeline, dt =
        Spans.timed spans "view.static_timeline" (fun () ->
            View.static_timeline view ~insert:None ~include_tentative:true)
      in
      s.timeline_late <- dt :: s.timeline_late;
      let _, dt = Spans.timed spans "spec.legal" (fun () -> Serial_spec.legal spec timeline) in
      s.legal_late <- dt :: s.legal_late
    end

(* Execute a shape's transactions one after another through
   [Replicated.execute] and [Replicated.broadcast_status]. *)
let drive spans s shape =
  let engine = Engine.create ~seed:shape.seed in
  let net = Network.create engine ~n_sites:Workloads.n_sites ~latency_mean:2.0 () in
  let objs =
    List.map
      (fun (oc : Runtime.object_config) ->
        ( oc.obj_name,
          ( oc.obj_spec,
            Replicated.create ~name:oc.obj_name ~spec:oc.obj_spec ~scheme:shape.scheme
              ~relation:oc.obj_relation ~assignment:oc.obj_assignment ~net () ) ))
      shape.objects
  in
  let clocks = Array.init Workloads.n_sites (fun site -> Lamport.create ~site) in
  let rng = Rng.create shape.seed in
  let eighth = max 1 (shape.n_txns / 8) in
  for i = 0 to shape.n_txns - 1 do
    let home = i mod Workloads.n_sites in
    let clock = clocks.(home) in
    let action = Action.of_string (Printf.sprintf "T%d" i) in
    let txn = Txn.create ~action ~begin_ts:(Lamport.tick clock) ~home_site:home in
    let window =
      if i < eighth then `Early else if i >= shape.n_txns - eighth then `Late else `Mid
    in
    let touched = ref [] and ok = ref true in
    List.iter
      (fun (op : Runtime.op_request) ->
        if !ok then begin
          let spec, obj = List.assoc op.target objs in
          if not (List.memq obj !touched) then touched := obj :: !touched;
          measure_view spans s obj spec window;
          let result = ref None in
          let (), dt =
            Spans.timed spans "replicated.execute" (fun () ->
                Replicated.execute obj ~txn ~clock op.invocation ~k:(fun r ->
                    result := Some r);
                Engine.run engine)
          in
          (match window with
           | `Early -> s.execute_early <- dt :: s.execute_early
           | `Late -> s.execute_late <- dt :: s.execute_late
           | `Mid -> ());
          match !result with
          | Some (Replicated.Done _) -> ()
          | Some _ | None -> ok := false
        end)
      (shape.script rng i);
    let record =
      if !ok then Log.Commit_record (action, Lamport.tick clock) else Log.Abort_record action
    in
    Spans.with_span spans "replicated.broadcast_status" (fun () ->
        List.iter
          (fun obj -> Replicated.broadcast_status obj record ~reachable_from:home)
          !touched;
        Engine.run engine)
  done;
  List.map (fun (_, (_, obj)) -> Replicated.repository_log obj ~site:0) objs

(* Replay the final logs into a fresh repository and a fresh WAL, one
   transaction's records at a time: append, then a flush barrier, then a
   full recovery scan at the end. *)
let store spans s shape logs =
  List.iter
    (fun log ->
      let repo = Repository.create ~durability:shape.durability ~site:0 () in
      let wal = Wal.create ~segment_records:16 () in
      let records = Log.records log in
      let by_action = Hashtbl.create 64 and order = ref [] in
      List.iter
        (fun r ->
          let a =
            match r with
            | Log.Entry e -> e.Log.action
            | Log.Commit_record (a, _) | Log.Abort_record a | Log.Precommit (a, _)
            | Log.Preabort a -> a
          in
          if not (Hashtbl.mem by_action a) then order := a :: !order;
          Hashtbl.add by_action a r)
        records;
      List.iter
        (fun a ->
          let rs = List.rev (Hashtbl.find_all by_action a) in
          let n = List.length rs in
          let (), dt =
            Spans.timed spans "repository.append" (fun () ->
                List.iter (fun r -> Repository.append repo [ r ]) rs)
          in
          s.append_s <- s.append_s +. dt;
          s.appends <- s.appends + n;
          let (), dt = Spans.timed spans "wal.append" (fun () -> List.iter (Wal.append wal) rs) in
          s.wal_append_s <- s.wal_append_s +. dt;
          s.wal_appends <- s.wal_appends + n;
          let _, dt = Spans.timed spans "wal.flush" (fun () -> Wal.flush wal) in
          s.wal_flush_s <- s.wal_flush_s +. dt;
          s.wal_flushes <- s.wal_flushes + 1)
        (List.rev !order);
      let r, dt = Spans.timed spans "wal.recover" (fun () -> Wal.recover wal) in
      s.wal_recover_s <- s.wal_recover_s +. dt;
      s.wal_recovered <- s.wal_recovered + r.Wal.replayed)
    logs

(* ---------- microbenchmarks of the sim and obs layers ---------- *)

let engine_event_ns spans ~seed ~events =
  let engine = Engine.create ~seed in
  let rng = Rng.create seed in
  let (), dt =
    Spans.timed spans "engine.run" (fun () ->
        for _ = 1 to events do
          Engine.schedule engine ~delay:(Rng.exponential rng 2.0) ignore
        done;
        Engine.run engine)
  in
  dt *. 1e9 /. float_of_int events

let send_ns spans ~seed ~sends =
  let engine = Engine.create ~seed in
  let net = Network.create engine ~n_sites:Workloads.n_sites ~latency_mean:2.0 () in
  let (), dt =
    Spans.timed spans "network.send" (fun () ->
        for i = 1 to sends do
          Network.send net ~src:(i mod 3) ~dst:((i + 1) mod 3) ignore
        done)
  in
  Spans.with_span spans "engine.run" (fun () -> Engine.run engine);
  dt *. 1e9 /. float_of_int sends

(* Percentile queries over latency books sized by the gray config's window. *)
let sitelat spans ~seed ~queries =
  let window = Runtime.default_gray.Runtime.slow.Detector.sc_window in
  let book = Sitelat.create ~n_sites:Workloads.n_sites ~window () in
  let rng = Rng.create seed in
  for site = 0 to Workloads.n_sites - 1 do
    for _ = 1 to window do
      Sitelat.observe book ~site (Rng.exponential rng 2.0)
    done
  done;
  let per name f =
    let sink = ref 0.0 in
    let (), dt =
      Spans.timed spans name (fun () ->
          for i = 1 to queries do
            sink := !sink +. f (i mod Workloads.n_sites)
          done)
    in
    ignore (Sys.opaque_identity !sink);
    dt *. 1e6 /. float_of_int queries
  in
  ( per "sitelat.percentile" (fun site -> Sitelat.percentile book ~site ~q:0.99),
    per "sitelat.pooled_percentile" (fun _ -> Sitelat.pooled_percentile book ~q:0.95),
    per "sitelat.median_percentile" (fun _ -> Sitelat.median_percentile book ~q:0.99) )

(* ---------- the traced run ---------- *)

type result = {
  metrics : (string * float * string) list; (* name, value, unit *)
  program : program;
  shares : ((string * string) * float) list; (* (phase, span name) -> self seconds *)
  spans : Spans.span list;
}

let layer_of name =
  let prefix = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  match prefix with
  | "replicated" | "log" | "view" | "repository" -> "replica"
  | "wal" -> "store"
  | "engine" | "network" -> "sim"
  | "sitelat" | "monitor" -> "obs"
  | "campaign" -> "chaos"
  | p -> p

(* Self time per (phase, span name): a phase is the top-level bench.*
   span the call ran under (program passes, layer drive, microbenchmarks). *)
let shares spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (sp : Spans.span) -> Hashtbl.replace by_id sp.id sp) spans;
  let rec phase (sp : Spans.span) =
    if sp.parent < 0 then sp.name else phase (Hashtbl.find by_id sp.parent)
  in
  Spans.self_by ~key:(fun sp -> (phase sp, sp.name)) spans

let us xs = median xs *. 1e6

(* Iteration counts of the microbenchmarks at [scale] 1.0. *)
let engine_events = 200_000
let network_sends = 100_000
let sitelat_queries = 20_000

let run ~spans ~seed ~scale jobs =
  let count n = max 100 (int_of_float (float_of_int n *. scale)) in
  let program = Spans.with_span spans "bench.program" (fun () -> program_passes spans jobs) in
  let s = empty_samples () in
  Spans.with_span spans "bench.layers" (fun () ->
      List.iter
        (fun shape ->
          let logs = drive spans s shape in
          store spans s shape logs)
        (shapes jobs));
  let engine_ns, send_ns =
    Spans.with_span spans "bench.sim" (fun () ->
        ( engine_event_ns spans ~seed ~events:(count engine_events),
          send_ns spans ~seed ~sends:(count network_sends) ))
  in
  let p_us, pooled_us, median_us =
    Spans.with_span spans "bench.obs" (fun () ->
        sitelat spans ~seed ~queries:(count sitelat_queries))
  in
  let all_spans = Spans.spans spans in
  let t = program.tally in
  let per n x = x /. float_of_int (max 1 n) in
  let metrics =
    [
      ("replicated.execute_us_early", us s.execute_early, "us");
      ("replicated.execute_us_late", us s.execute_late, "us");
      ("log.merge_us_late", us s.merge_late, "us");
      ("view.classify_us_early", us s.classify_early, "us");
      ("view.classify_us_late", us s.classify_late, "us");
      ( "view.classify_growth",
        median s.classify_late /. Float.max 1e-9 (median s.classify_early),
        "ratio" );
      ("view.static_timeline_us_late", us s.timeline_late, "us");
      ("log.records_per_view", per s.views (float_of_int s.view_records), "count");
      ("repository.append_us", per s.appends (s.append_s *. 1e6), "us");
      ("spec.replay_us_late", us s.replay_late, "us");
      ("spec.legal_us_late", us s.legal_late, "us");
      ("sim.msgs_per_commit", per t.committed (float_of_int t.msgs), "count");
      ("sim.rpc_timeouts_per_commit", per t.committed (float_of_int t.rpc_timeouts), "count");
      ("sim.engine_event_ns", engine_ns, "ns");
      ("sim.send_ns", send_ns, "ns");
      ("sitelat.percentile_us", p_us, "us");
      ("sitelat.pooled_percentile_us", pooled_us, "us");
      ("sitelat.median_percentile_us", median_us, "us");
      ("trace.events_per_commit", per t.committed (float_of_int program.events), "count");
      ("trace.overhead_ratio", median program.overhead, "ratio");
      ("monitor.us_per_event", per program.events (program.monitor_s *. 1e6), "us");
      ("monitor.replay_s", program.monitor_s, "s");
      ("wal.append_us", per s.wal_appends (s.wal_append_s *. 1e6), "us");
      ("wal.flush_us", per s.wal_flushes (s.wal_flush_s *. 1e6), "us");
      ("wal.recover_us_per_record", per s.wal_recovered (s.wal_recover_s *. 1e6), "us");
      ("wal.flushes_per_commit", per t.committed (float_of_int t.wal_flushes), "count");
      ("txn.decision_writes_per_commit", per t.committed (float_of_int t.decision_writes), "count");
      ("txn.redrives", float_of_int t.redrives, "count");
      ("runtime.run_s", program.run_s, "s");
      ("runtime.minor_words_per_commit", per t.committed program.minor_words, "words");
      ("atomicity.check_s", program.atomicity_s, "s");
      ("core.relation_s", Spans.total all_spans "core.relation", "s");
      ("workload.plan_s", Spans.total all_spans "workload.plan" +. program.script_s, "s");
    ]
  in
  { metrics; program; shares = shares all_spans; spans = all_spans }

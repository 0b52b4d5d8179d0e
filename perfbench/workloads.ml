(* The four benchmark workloads: how each one turns a seed into runtime
   configurations, and how one pass over those configurations is run,
   judged and tallied. *)

open Atomrep_replica
module Campaign = Atomrep_chaos.Campaign
module Monitors = Atomrep_chaos.Monitors
module Summary = Atomrep_stats.Summary

type t = Deep_hybrid_queue | Deep_static_bank | Gray_sweep | Fault_sweep

let all = [ Deep_hybrid_queue; Deep_static_bank; Gray_sweep; Fault_sweep ]

let name = function
  | Deep_hybrid_queue -> "deep_hybrid_queue"
  | Deep_static_bank -> "deep_static_bank"
  | Gray_sweep -> "gray_sweep"
  | Fault_sweep -> "fault_sweep"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* [txns]: transactions per history. [seeds]: histories per pass of a
   deep workload, campaign seeds per scheme and profile in one pass of a
   sweep. *)
type size = { txns : int; seeds : int }

let bench_size = function
  | Deep_hybrid_queue -> { txns = 800; seeds = 1 }
  (* Four shorter histories rather than one of 1000 txns: how much one
     bank history costs depends on its seed (one in ten costs twice the
     median), and a pass over four spreads half as much across seeds. *)
  | Deep_static_bank -> { txns = 500; seeds = 4 }
  | Gray_sweep -> { txns = 30; seeds = 10 }
  | Fault_sweep -> { txns = 30; seeds = 20 }

(* How big [size] is next to [bench_size]: 1.0 at the benchmark's size. *)
let scale w size =
  let b = bench_size w in
  float_of_int (size.txns * size.seeds) /. float_of_int (b.txns * b.seeds)

(* Small enough for unit tests; same shapes, so every code path runs. *)
let tiny_size = function
  | Deep_hybrid_queue | Deep_static_bank -> { txns = 40; seeds = 1 }
  | Gray_sweep | Fault_sweep -> { txns = 10; seeds = 1 }

let schemes = [ Replicated.Hybrid; Replicated.Static; Replicated.Locking ]
let n_sites = 3

(* One configuration of a pass. Sweep runs are judged by the full monitor
   catalogue through [Campaign.check_run]; deep runs by the two history
   oracles. *)
type job = { label : string; cfg : Runtime.config; monitored : bool }

let submitted (cfg : Runtime.config) =
  match cfg.Runtime.load with
  | Some l -> min cfg.Runtime.n_txns (Array.length l.Runtime.arrivals)
  | None -> cfg.Runtime.n_txns

let profile name =
  match Campaign.find_profile name with
  | Some p -> p
  | None -> invalid_arg ("unknown chaos profile " ^ name)

let queue_object relation =
  {
    Runtime.obj_name = "queue";
    obj_spec = Atomrep_spec.Queue_type.spec;
    obj_relation = relation;
    obj_assignment = Runtime.default_queue_assignment ~n_sites;
    obj_members = None;
  }

let bank_accounts = [ "acct0"; "acct1"; "acct2"; "acct3" ]

(* The span recorder is threaded through set-up so the traced run can
   attribute relation and plan building to their layers. *)
let setup ?(spans = Spans.create ~run:"setup" ()) w size ~seed =
  let span name f = Spans.with_span spans name f in
  let queue_relation () =
    span "core.relation" (fun () ->
        Atomrep_core.Static_dep.minimal Atomrep_spec.Queue_type.spec ~max_len:4)
  in
  let sweep ~arms =
    span "campaign.configure" (fun () ->
        List.concat_map
          (fun (arm, base_of, prof) ->
            let bases =
              List.init size.seeds (fun i ->
                  let seed = (seed * size.seeds) + i in
                  (seed, base_of seed))
            in
            List.concat_map
              (fun scheme ->
                List.map
                  (fun (seed, base) ->
                    {
                      label =
                        Printf.sprintf "%s/%s/%d" arm
                          (Replicated.scheme_name scheme) seed;
                      cfg =
                        Campaign.configure ~base ~scheme ~seed ~n_txns:size.txns
                          ~intensity:1.0 prof;
                      monitored = true;
                    })
                  bases)
              schemes)
          arms)
  in
  (* A deep pass runs [size.seeds] histories, on a disjoint block of
     runtime seeds. *)
  let histories label cfg_of =
    List.init size.seeds (fun i ->
        let seed = (seed * size.seeds) + i in
        { label = Printf.sprintf "%s/%d" label seed; cfg = cfg_of seed; monitored = false })
  in
  match w with
  | Deep_hybrid_queue ->
    let relation = queue_relation () in
    histories "hybrid" (fun seed ->
        {
          Runtime.default_config with
          seed;
          n_txns = size.txns;
          objects = [ queue_object relation ];
        })
  | Deep_static_bank ->
    let spec = Atomrep_spec.Bank_account.spec in
    let relation =
      span "core.relation" (fun () ->
          Atomrep_core.Static_dep.minimal spec ~max_len:3)
    in
    let assignment =
      Atomrep_quorum.Assignment.make ~n_sites
        (List.map
           (fun op -> (op, { Atomrep_quorum.Assignment.initial = 2; final = 2 }))
           [ "Deposit"; "Withdraw"; "Balance" ])
    in
    let objects =
      List.map
        (fun obj_name ->
          {
            Runtime.obj_name;
            obj_spec = spec;
            obj_relation = relation;
            obj_assignment = assignment;
            obj_members = None;
          })
        bank_accounts
    in
    histories "static" (fun seed ->
        {
          Runtime.default_config with
          seed;
          n_txns = size.txns;
          scheme = Replicated.Static;
          arrival_mean = 60.0;
          objects;
          script = Atomrep_workload.Mixes.bank_mix ~targets:bank_accounts ();
        })
  | Gray_sweep ->
    let base =
      { Campaign.gray_base with Runtime.objects = [ queue_object (queue_relation ()) ] }
    in
    sweep ~arms:[ ("gray_storm", Fun.const base, profile "gray_storm") ]
  | Fault_sweep ->
    let durable = Campaign.storage_base.Runtime.durability in
    let takeover =
      {
        Campaign.takeover_base with
        Runtime.durability = durable;
        objects = [ queue_object (queue_relation ()) ];
      }
    in
    (* The flash-crowd plan of [Campaign.overload_plan], drawn per campaign
       seed instead of once. The objects (whose dependency relations are
       the expensive part) depend only on the plan's shape, so they are
       built once instead of once per plan as [Openloop.apply] would. *)
    let plan seed =
      span "workload.plan" (fun () ->
          Atomrep_workload.Openloop.plan
            ~curve:
              (Atomrep_workload.Openloop.Flash_crowd
                 { at = 3_000.0; duration = 2_000.0; mult = 10.0 })
            ~profile:Atomrep_workload.Openloop.Queue_fanout ~n_objects:3 ~n_sites
            ~n_sessions:6 ~seed:(1000 + seed) ~rate:0.004 ~horizon:12_000.0 ())
    in
    let overload_base =
      {
        Campaign.overload_base with
        Runtime.durability = durable;
        objects =
          span "core.relation" (fun () ->
              Atomrep_workload.Openloop.objects Campaign.overload_plan ~n_sites);
      }
    in
    let overload seed =
      let p = plan seed in
      {
        overload_base with
        Runtime.n_txns = Atomrep_workload.Openloop.n_txns p;
        script = Atomrep_workload.Openloop.script p;
        load = Some (Atomrep_workload.Openloop.load p);
      }
    in
    sweep
      ~arms:
        [
          ("takeover_storm", Fun.const takeover, profile "takeover_storm");
          ("overload_storm", overload, profile "overload_storm");
        ]

(* What one pass produced. Counts are summed over the pass's jobs. *)
type tally = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable msgs : int;
  mutable unresolved : int; (* neither committed nor aborted at the horizon *)
  mutable violating_runs : int;
  mutable raised : int; (* jobs that raised an exception *)
  mutable failed : int; (* transactions of violating/raising jobs, plus unresolved *)
  mutable rpc_timeouts : int;
  mutable wal_flushes : int;
  mutable decision_writes : int;
  mutable redrives : int;
  mutable problems : string list;
  latencies : Summary.t; (* simulated commit latency, pooled *)
}

let empty_tally () =
  {
    submitted = 0;
    committed = 0;
    aborted = 0;
    msgs = 0;
    unresolved = 0;
    violating_runs = 0;
    raised = 0;
    failed = 0;
    rpc_timeouts = 0;
    wal_flushes = 0;
    decision_writes = 0;
    redrives = 0;
    problems = [];
    latencies = Summary.create ();
  }

let add_outcome t job (outcome : Runtime.outcome) failures =
  let m = outcome.Runtime.metrics in
  let n = submitted job.cfg in
  t.submitted <- t.submitted + n;
  t.committed <- t.committed + m.Runtime.committed;
  t.aborted <- t.aborted + m.Runtime.aborted;
  t.msgs <- t.msgs + m.Runtime.msgs_sent;
  let unresolved = max 0 (n - m.Runtime.committed - m.Runtime.aborted) in
  t.unresolved <- t.unresolved + unresolved;
  t.rpc_timeouts <- t.rpc_timeouts + m.Runtime.rpc_timeouts;
  t.wal_flushes <- t.wal_flushes + m.Runtime.wal_flushes;
  t.decision_writes <- t.decision_writes + m.Runtime.decision_log_writes;
  t.redrives <- t.redrives + m.Runtime.redrives;
  List.iter (Summary.add t.latencies) (Summary.observations m.Runtime.txn_latency);
  if failures <> [] then begin
    t.violating_runs <- t.violating_runs + 1;
    t.failed <- t.failed + n;
    List.iter
      (fun (obj, why) ->
        t.problems <- Printf.sprintf "%s: %s: %s" job.label obj why :: t.problems)
      failures
  end
  else t.failed <- t.failed + unresolved;
  if unresolved > 0 then
    t.problems <-
      Printf.sprintf "%s: %d transactions unresolved at the horizon" job.label
        unresolved
      :: t.problems

let add_exception t job e =
  let n = submitted job.cfg in
  t.submitted <- t.submitted + n;
  t.raised <- t.raised + 1;
  t.failed <- t.failed + n;
  t.problems <-
    Printf.sprintf "%s: raised %s" job.label (Printexc.to_string e) :: t.problems

(* The oracle a user of each entry point runs: the full monitor catalogue
   for campaign runs, the two history oracles for single simulations. *)
let judge job =
  if job.monitored then Campaign.check_run ~monitors:Monitors.registry job.cfg
  else begin
    let outcome = Runtime.run job.cfg in
    ( outcome,
      Runtime.check_atomicity job.cfg outcome
      @ Runtime.check_common_order job.cfg outcome )
  end

(* One pass: every job through its public entry point. Returns the tally
   and the wall seconds spent inside the timed calls. *)
let run_pass jobs =
  let t = empty_tally () in
  let wall = ref 0.0 in
  List.iter
    (fun job ->
      let t0 = Clock.now () in
      match judge job with
      | outcome, failures ->
        wall := !wall +. (Clock.now () -. t0);
        add_outcome t job outcome failures
      | exception e ->
        wall := !wall +. (Clock.now () -. t0);
        add_exception t job e)
    jobs;
  (t, !wall)

type fingerprint = { f_committed : int; f_aborted : int; f_msgs : int }

let fingerprint t = { f_committed = t.committed; f_aborted = t.aborted; f_msgs = t.msgs }

let pp_fingerprint f =
  Printf.sprintf "committed=%d aborted=%d msgs_sent=%d" f.f_committed f.f_aborted f.f_msgs

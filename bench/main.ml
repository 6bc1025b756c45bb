(* Bechamel timing benchmarks, one group per regenerated table plus a
   substrate group and a parallel-layer group.  Each benchmark times
   the (exact) acceptance computation the tables harness relies on, so
   the wall-clock cost of every experiment in EXPERIMENTS.md is
   tracked here.  Running with the single argument [perf] skips the
   bechamel pass and only emits BENCH_perf.json, the sequential-vs-
   parallel comparison used by CI. *)

open Bechamel
open Toolkit
open Qdp_codes
open Qdp_network
open Qdp_commcc
open Qdp_core

let () = Protocols.init ()
let st = Random.State.make [| 0xbe9c |]

let distinct_pair n =
  let x = Gf2.random st n in
  let rec other () =
    let y = Gf2.random st n in
    if Gf2.equal x y then other () else y
  in
  (x, other ())

(* --- substrate --- *)

let bench_substrate =
  let open Qdp_linalg in
  let runit n =
    Vec.normalize (Vec.init n (fun _ -> Cx.re (States.gaussian st)))
  in
  let a256 = runit 256 and b256 = runit 256 in
  let regs = List.init 4 (fun _ -> runit 64) in
  let herm =
    let m =
      Mat.init 24 24 (fun _ _ ->
          Cx.make (States.gaussian st) (States.gaussian st))
    in
    Mat.scale (Cx.re 0.5) (Mat.add m (Mat.adjoint m))
  in
  let chain =
    let l = runit 128 in
    Sim.two_state_chain ~r:64 ~left:l ~right:(runit 128)
      ~final:(fun reg -> Cx.norm2 (Vec.dot l reg.(0)))
      Strategy.Geodesic
  in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"swap_test_dim256" (Staged.stage (fun () ->
          ignore (Qdp_quantum.Swap_test.accept_prob_product a256 b256)));
      Test.make ~name:"perm_test_k4" (Staged.stage (fun () ->
          ignore (Qdp_quantum.Permutation_test.accept_prob_product regs)));
      Test.make ~name:"path_dp_r64" (Staged.stage (fun () ->
          ignore (Sim.path_accept chain)));
      Test.make ~name:"eig_hermitian_24" (Staged.stage (fun () ->
          ignore (Eig.hermitian herm)));
      Test.make ~name:"fingerprint_n256" (Staged.stage (fun () ->
          let fp = Qdp_fingerprint.Fingerprint.standard ~seed:1 ~n:256 in
          ignore (Qdp_fingerprint.Fingerprint.state fp (Gf2.random st 256))));
    ]

(* --- Table 1 --- *)

let bench_table1 =
  let n = 32 in
  let x, y = distinct_pair n in
  let g = Graph.star 4 in
  let terminals = [ 1; 2; 3; 4 ] in
  let inputs = [| Gf2.copy x; Gf2.copy x; Gf2.copy x; y |] in
  let fgnp = Eq_tree.make ~repetitions:1 ~use_permutation_test:false ~seed:1 ~n ~r:2 () in
  let proto = Oneway.ham ~seed:2 ~n:48 ~d:2 in
  let xh = Gf2.random st 48 in
  let yh = Gf2.xor xh (Gf2.random_weight st 48 2) in
  let dma = Lower_bounds.truncation_protocol ~n:16 ~r:6 ~c:6 in
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"fgnp_eq_tree_t4" (Staged.stage (fun () ->
          ignore (Eq_tree.best_attack_accept fgnp g ~terminals ~inputs)));
      Test.make ~name:"ham_oneway_accept" (Staged.stage (fun () ->
          ignore (Oneway.accept_on_inputs proto xh yh)));
      Test.make ~name:"dma_fooling_splice" (Staged.stage (fun () ->
          ignore (Lower_bounds.fooling_splice dma ~n:16 ~limit:8192)));
    ]

(* --- registered protocols, analytic backend --- *)

(* One benchmark per registry entry: build the entry's demo instances
   and run the uniform evaluation (honest + attack library), i.e. what
   a conformance-suite row costs.  No per-protocol code here — new
   registrations are picked up automatically. *)
let bench_protocols =
  let spec = { Registry.default_spec with n = 32; r = 4; t = 3 } in
  Test.make_grouped ~name:"protocols"
    (List.map
       (fun entry ->
         let i = Registry.info entry in
         Test.make ~name:i.Registry.info_id
           (Staged.stage (fun () -> ignore (Registry.evaluate_demo spec entry))))
       (Registry.all ()))

(* --- registered protocols, network backend --- *)

(* For every entry with a message-passing realization: the cost of a
   (small) differential cross-validation pass, analytic vs sampled. *)
let bench_network =
  let spec = { Registry.default_spec with n = 24; r = 3; t = 3 } in
  let st' = Random.State.make [| 0x9e7 |] in
  Test.make_grouped ~name:"network"
    (List.filter_map
       (fun entry ->
         let i = Registry.info entry in
         if not i.Registry.info_network then None
         else
           Some
             (Test.make ~name:("xval_" ^ i.Registry.info_id)
                (Staged.stage (fun () ->
                     ignore
                       (Registry.cross_validate_demo ~trials:2 ~st:st' spec
                          entry)))))
       (Registry.all ()))

(* --- fault layer: one recovered execution per fault-tolerant entry --- *)

let bench_faults =
  let open Qdp_faults in
  let spec = { Registry.default_spec with n = 24; r = 3; t = 3 } in
  Test.make_grouped ~name:"faults"
    (List.filter_map
       (fun entry ->
         match Registry.fault_suite spec entry with
         | None -> None
         | Some suite ->
             let case = List.hd suite.Registry.fs_yes in
             Some
               (Test.make ~name:("faulty_" ^ suite.Registry.fs_id)
                  (Staged.stage (fun () ->
                       let proto_st = Random.State.make [| 0x4af |] in
                       let env =
                         Plan.env Plan.Drop ~strength:0.1
                           ~st:(Random.State.make [| 0x4af; 1 |])
                       in
                       ignore
                         (Plan.execute Plan.Reject_on_timeout (fun () ->
                              case.Registry.fc_run proto_st env))))))
       (Registry.all ()))

(* --- Table 3 --- *)

let bench_table3 =
  let x, y = distinct_pair 24 in
  let pc =
    Qma_star_reduction.uniform ~r:16 ~intermediate_proof:40 ~end_proof:0
      ~edge_message:8
  in
  let cfg = { Exact.r = 3; qubits = 1 } in
  let xs = Exact.toy_state ~qubits:1 5 and ys = Exact.toy_state ~qubits:1 11 in
  Test.make_grouped ~name:"table3"
    [
      Test.make ~name:"gap_splice_accept" (Staged.stage (fun () ->
          ignore (Lower_bounds.gap_splice_accept ~seed:9 ~n:24 ~r:8 ~gap:4 x y)));
      Test.make ~name:"state_packing_b2" (Staged.stage (fun () ->
          let st' = Random.State.make [| 7 |] in
          ignore (Lower_bounds.max_pairwise_overlap_random st' ~qubits:2 ~count:16)));
      Test.make ~name:"ip_spectral_disc_n5" (Staged.stage (fun () ->
          ignore (Discrepancy.spectral_discrepancy_bound (Problems.ip 5))));
      Test.make ~name:"node_split_best_cut" (Staged.stage (fun () ->
          ignore (Qma_star_reduction.best_cut pc)));
      Test.make ~name:"exact_entangled_opt_r3" (Staged.stage (fun () ->
          ignore (Exact.optimal_entangled_attack cfg ~x_state:xs ~y_state:ys)));
      (* one node longer: a 256-dimensional proof space *)
      Test.make ~name:"exact_entangled_opt_r4" (Staged.stage (fun () ->
          let cfg4 = { Exact.r = 4; qubits = 1 } in
          ignore (Exact.optimal_entangled_attack cfg4 ~x_state:xs ~y_state:ys)));
    ]

(* --- extensions: variants, sets, runtime executions --- *)

let bench_extensions =
  let open Qdp_linalg in
  let xs = Exact.toy_state ~qubits:1 5 and ys = Exact.toy_state ~qubits:1 11 in
  let lsd_inst = Lsd.random_close st ~ambient:64 ~dim:2 in
  let lsd_params = Qmacc_compiler.make ~repetitions:1 ~r:4 () in
  let smp = Smp.repeat_and 4 (Smp.eq ~seed:13 ~n:32) in
  let xsmp, ysmp = distinct_pair 32 in
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"sep_optimize_r3" (Staged.stage (fun () ->
          let st' = Random.State.make [| 5 |] in
          ignore
            (Sep_sim.optimize st' ~d:2 ~r:3 ~left:xs ~final:(Mat.of_vec ys)
               ~sweeps:4)));
      Test.make ~name:"sep_optimize_product_r3" (Staged.stage (fun () ->
          let st' = Random.State.make [| 6 |] in
          ignore
            (Sep_sim.optimize_product st' ~d:2 ~r:3 ~left:xs
               ~final:(Mat.of_vec ys) ~sweeps:4)));
      Test.make ~name:"lsd_pipeline_m64" (Staged.stage (fun () ->
          ignore
            (Qmacc_compiler.run_lsd_pipeline lsd_params ~ambient:64 ~inst:lsd_inst)));
      Test.make ~name:"schur_projector_d2k4" (Staged.stage (fun () ->
          ignore (Qdp_quantum.Schur.projector ~d:2 [ 3; 1 ])));
      Test.make ~name:"smp_eq_x4" (Staged.stage (fun () ->
          ignore (Smp.accept_on_inputs smp xsmp ysmp)));
    ]

(* --- acceptance forms and the Batch kernels --- *)

(* The per-basis-proof reference for the acceptance form, the A/B
   baseline of [Exact.attack_gram]'s proof-space build: one full scalar
   circuit pass per basis proof, then a boxed Vec.dot per Gram
   entry. *)
let naive_attack_gram cfg ~x_state ~y_state =
  let open Qdp_linalg in
  let pdim = 1 lsl Exact.proof_qubits cfg in
  let outs =
    Array.init pdim (fun i ->
        Qdp_quantum.Pure.global_vector
          (Exact.final_state cfg ~x_state ~y_state ~proof:(Vec.basis pdim i)))
  in
  Mat.init pdim pdim (fun i j -> Vec.dot outs.(i) outs.(j))

(* The pre-Bigarray Gram kernel, kept verbatim as the storage A/B
   baseline: the same tiled zero-skip loops Batch.gram ran before the
   Bigarray migration, on plain float arrays.  Timing it against
   Batch.gram on identical data isolates the storage/microkernel
   win. *)
let float_array_gram ~dim:d ~count:n (ar : float array) (ai : float array) =
  let gr = Array.make (n * n) 0. and gi = Array.make (n * n) 0. in
  let real = Array.for_all (fun x -> x = 0.) ai in
  let tile = 32 in
  let tiles = (n + tile - 1) / tile in
  for t = 0 to tiles - 1 do
    let i0 = t * tile and i1 = min n ((t + 1) * tile) - 1 in
    if real then
      for v = 0 to d - 1 do
        let row = v * n in
        for i = i0 to i1 do
          let x = ar.(row + i) in
          if x <> 0. then begin
            let out = i * n in
            for j = i to n - 1 do
              gr.(out + j) <- gr.(out + j) +. (x *. ar.(row + j))
            done
          end
        done
      done
    else
      for v = 0 to d - 1 do
        let row = v * n in
        for i = i0 to i1 do
          let xr = ar.(row + i) and xi = ai.(row + i) in
          if xr <> 0. || xi <> 0. then begin
            let out = i * n in
            for j = i to n - 1 do
              let yr = ar.(row + j) and yi = ai.(row + j) in
              gr.(out + j) <- gr.(out + j) +. (xr *. yr) +. (xi *. yi);
              gi.(out + j) <- gi.(out + j) +. (xr *. yi) -. (xi *. yr)
            done
          end
        done
      done
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      gr.((j * n) + i) <- gr.((i * n) + j);
      gi.((j * n) + i) <- -.gi.((i * n) + j)
    done
  done;
  (gr, gi)

(* The perf workload: the entangled-attack acceptance form on the
   largest path instance the tables exercise (r = 3, 2-qubit
   fingerprints: a 256-dimensional proof space, final states of
   dimension 4096). *)
let gram_cfg = { Exact.r = 3; qubits = 2 }
let gram_xs = Exact.toy_state ~qubits:2 5
let gram_ys = Exact.toy_state ~qubits:2 11

(* The basis-proof final states of that instance as one batch, packed
   once for the storage A/B (Bigarray Batch.gram vs the float-array
   kernel above on copies of the same data). *)
let gram_batch_data =
  lazy
    (let open Qdp_linalg in
     let pdim = 1 lsl Exact.proof_qubits gram_cfg in
     let b =
       Batch.of_cols
         (Array.init pdim (fun i ->
              Qdp_quantum.Pure.global_vector
                (Exact.final_state gram_cfg ~x_state:gram_xs ~y_state:gram_ys
                   ~proof:(Vec.basis pdim i))))
     in
     let to_floats a =
       Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a)
     in
     (b, to_floats (Batch.raw_re b), to_floats (Batch.raw_im b)))

let perf_gram_attack () =
  ignore (Exact.attack_gram gram_cfg ~x_state:gram_xs ~y_state:gram_ys)

let bench_batch =
  let open Qdp_linalg in
  let stb = Random.State.make [| 0x6a7 |] in
  let b2048 =
    Batch.init 2048 8 (fun _ _ ->
        Cx.make (States.gaussian stb) (States.gaussian stb))
  in
  let m64 =
    Mat.init 64 64 (fun _ _ ->
        Cx.make (States.gaussian stb) (States.gaussian stb))
  in
  let src =
    Batch.init 64 32 (fun _ _ ->
        Cx.make (States.gaussian stb) (States.gaussian stb))
  in
  let dst = Batch.create 64 32 in
  let cfg1 = { Exact.r = 3; qubits = 1 } in
  let xs1 = Exact.toy_state ~qubits:1 5 and ys1 = Exact.toy_state ~qubits:1 11 in
  Test.make_grouped ~name:"batch"
    [
      Test.make ~name:"gram_2048x8" (Staged.stage (fun () ->
          ignore (Batch.gram b2048)));
      Test.make ~name:"apply_into_64x32" (Staged.stage (fun () ->
          Batch.apply_into m64 ~src ~dst));
      Test.make ~name:"attack_gram_r3_q1" (Staged.stage (fun () ->
          ignore (Exact.attack_gram cfg1 ~x_state:xs1 ~y_state:ys1)));
    ]

(* --- parallel layer --- *)

(* The pool-backed workloads, shared between the bechamel [par] group
   (timed at whatever --jobs/QDP_JOBS is in force) and the [perf]
   A/B harness below.  Each closure is fully seeded so repeated calls
   compute identical results at any job count. *)

let perf_attack_search =
  let n = 160 in
  let stp = Random.State.make [| 0x7e1 |] in
  let x = Gf2.random stp n in
  let y = Gf2.xor x (Gf2.random_weight stp n 3) in
  let params = Eq_path.make ~seed:3 ~n ~r:48 () in
  fun () -> ignore (Eq_path.best_attack_accept params x y)

let perf_fault_sweep =
  let cfg =
    let open Qdp_faults.Sweep in
    {
      (default ~seed:11) with
      trials = 40;
      grid = default_grid ~points:5 ();
      protocols = Some [ "eq"; "rpls" ];
      spec = { Registry.default_spec with seed = 11; n = 16; r = 3; t = 3 };
    }
  in
  fun () -> ignore (Qdp_faults.Sweep.run cfg)

let perf_monte_carlo =
  let spec = { Registry.default_spec with n = 24; r = 3; t = 3 } in
  let entries = List.filter_map Registry.find [ "eq"; "gt" ] in
  fun () ->
    let st' = Random.State.make [| 0x51 |] in
    List.iter
      (fun entry ->
        ignore (Registry.cross_validate_demo ~trials:160 ~st:st' spec entry))
      entries

let perf_mat_mul =
  let open Qdp_linalg in
  let stm = Random.State.make [| 0x31 |] in
  let rand _ _ =
    Cx.make
      (Random.State.float stm 2. -. 1.)
      (Random.State.float stm 2. -. 1.)
  in
  let a = Mat.init 192 192 rand in
  let b = Mat.init 192 192 rand in
  fun () -> ignore (Mat.mul a b)

let bench_par =
  Test.make_grouped ~name:"par"
    [
      Test.make ~name:"attack_search_path_n96"
        (Staged.stage perf_attack_search);
      Test.make ~name:"fault_sweep_eq_rpls" (Staged.stage perf_fault_sweep);
      Test.make ~name:"xval_eq_gt_t160" (Staged.stage perf_monte_carlo);
      Test.make ~name:"mat_mul_192" (Staged.stage perf_mat_mul);
    ]

let tests =
  Test.make_grouped ~name:"qdp"
    [
      bench_substrate;
      bench_table1;
      bench_protocols;
      bench_network;
      bench_faults;
      bench_table3;
      bench_extensions;
      bench_batch;
      bench_par;
    ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  Benchmark.all cfg instances tests

let analyze results =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock results in
  Analyze.merge ols Instance.[ monotonic_clock ] [ results ]

let () =
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock)

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

open Notty_unix

(* Observability hook: run one representative instrumented pass over
   the engines and dump a machine-readable summary to BENCH_obs.json,
   then reset and disable everything so the timed benchmarks below
   measure the switch-off (uninstrumented) cost. *)
let dump_obs () =
  Qdp_obs.with_enabled true (fun () ->
      List.iter
        (fun packed -> ignore (Dqma.evaluate_packed packed))
        (Registry.demo_suite ~seed:21);
      let xval_spec = { Registry.default_spec with n = 16; r = 3; t = 3 } in
      let st' = Random.State.make [| 23 |] in
      List.iter
        (fun entry ->
          ignore (Registry.cross_validate_demo ~trials:5 ~st:st' xval_spec entry))
        (Registry.all ());
      let g = Graph.path 6 in
      let flood =
        {
          Runtime.init = (fun _ -> ());
          round =
            (fun ~round:_ ~id s ~inbox:_ ->
              let out =
                List.filter
                  (fun d -> d >= 0 && d < Graph.size g)
                  [ id - 1; id + 1 ]
              in
              (s, List.map (fun d -> (d, id)) out));
          finish = (fun ~id:_ _ -> Runtime.Accept);
        }
      in
      ignore (Runtime.run g ~rounds:3 flood);
      (* One small fault sweep so the faults.* counters in the snapshot
         reflect real injected-and-recovered executions rather than
         sitting at zero. *)
      let fault_cfg =
        let open Qdp_faults.Sweep in
        {
          (default ~seed:27) with
          trials = 4;
          grid = default_grid ~points:2 ();
          protocols = Some [ "eq" ];
          spec = { Registry.default_spec with seed = 27; n = 16; r = 3; t = 3 };
        }
      in
      ignore (Qdp_faults.Sweep.run fault_cfg);
      let snap = Qdp_obs.Metrics.snapshot () in
      let spans, dropped = Qdp_obs.Trace.snapshot () in
      let json =
        Printf.sprintf "{\"trace\":{\"spans\":%d,\"dropped\":%d},\n\"metrics_snapshot\":%s}\n"
          (List.length spans) dropped
          (String.trim (Qdp_obs.Metrics.to_json snap))
      in
      let oc = open_out "BENCH_obs.json" in
      output_string oc json;
      close_out oc);
  Qdp_obs.Metrics.reset ();
  Qdp_obs.Trace.clear ()

(* Wall-clock A/B harness for the parallel layer: each group runs the
   identical seeded workload with the pool pinned to one job and then
   to the ambient job count (QDP_JOBS or the core count), and
   BENCH_perf.json records both times plus the speedup.  Because the
   workloads are jobs-invariant by construction, the two runs compute
   byte-identical results and the comparison is pure scheduling.  On a
   single-core host the "parallel" column is expected to be slower
   (domain oversubscription); the CI runner provides the multi-core
   reading. *)
let host_cores () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line >= 9 && String.sub line 0 9 = "processor"
           then incr n
         done
       with End_of_file -> ());
      close_in ic;
      if !n > 0 then !n else Domain.recommended_domain_count ()

let dump_perf () =
  let jobs_target = Qdp_par.jobs () in
  let groups =
    [
      ("attack_search", 10, perf_attack_search);
      ("fault_sweep", 1, perf_fault_sweep);
      ("monte_carlo_xval", 1, perf_monte_carlo);
    ]
  in
  let time_at jobs reps work =
    Qdp_par.set_jobs jobs;
    work ();
    let best = ref infinity in
    for _ = 1 to 2 do
      let t0 = Qdp_obs.Clock.now () in
      for _ = 1 to reps do
        work ()
      done;
      let dt = Qdp_obs.Clock.now () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  (* All sequential baselines run before the first parallel pass, so
     no pool domain exists yet to share the GC with. *)
  let seqs =
    List.map (fun (_, reps, work) -> time_at 1 reps work) groups
  in
  (* Kernel A/B: both columns sequential (jobs = 1).  The
     [entangled_gram_r3_q2] row times the proof-space build of the
     acceptance form (its [batched_s] column) against the
     per-basis-proof circuit kernel ([naive_s]).  The dense kernels
     always run sequentially, so they have no sequential-vs-parallel
     group. *)
  let kernels =
    let batched = time_at 1 1 perf_gram_attack in
    let naive =
      time_at 1 1 (fun () ->
          ignore
            (naive_attack_gram gram_cfg ~x_state:gram_xs ~y_state:gram_ys))
    in
    (* Storage A/B on identical data: the kept-verbatim float-array
       Gram loops vs the Bigarray Batch.gram microkernel, both
       sequential. *)
    let b, far, fai = Lazy.force gram_batch_data in
    let ba_batched =
      time_at 1 1 (fun () -> ignore (Qdp_linalg.Batch.gram b))
    in
    let ba_naive =
      time_at 1 1 (fun () ->
          ignore
            (float_array_gram
               ~dim:(Qdp_linalg.Batch.dim b)
               ~count:(Qdp_linalg.Batch.count b)
               far fai))
    in
    [
      Printf.sprintf
        "{\"kernel\":\"entangled_gram_r3_q2\",\"naive_s\":%.6f,\"batched_s\":%.6f,\"speedup\":%.3f}"
        naive batched (naive /. batched);
      Printf.sprintf
        "{\"kernel\":\"gram_bigarray_r3_q2\",\"naive_s\":%.6f,\"batched_s\":%.6f,\"speedup\":%.3f}"
        ba_naive ba_batched (ba_naive /. ba_batched);
    ]
  in
  let rows =
    List.map2
      (fun (name, reps, work) seq ->
        let par = time_at jobs_target reps work in
        Printf.sprintf
          "{\"group\":\"%s\",\"sequential_s\":%.6f,\"parallel_s\":%.6f,\"speedup\":%.3f}"
          name seq par (seq /. par))
      groups seqs
  in
  Qdp_par.set_jobs jobs_target;
  let oc = open_out "BENCH_perf.json" in
  Printf.fprintf oc
    "{\"jobs\":%d,\n\"host\":{\"cores\":%d,\"recommended_domains\":%d},\n\"kernels\":[\n%s\n],\n\"groups\":[\n%s\n]}\n"
    jobs_target (host_cores ())
    (Domain.recommended_domain_count ())
    (String.concat ",\n" kernels)
    (String.concat ",\n" rows);
  close_out oc;
  (* Under --profile: one fresh attributed pass per group at the
     ambient job count, reported to stderr so BENCH_perf.json and
     stdout are unchanged.  The per-group reset keeps each report's
     domain busy/idle split scoped to that workload alone. *)
  if Qdp_obs.Prof.on () then
    List.iter
      (fun (name, _, work) ->
        Qdp_obs.Prof.reset ();
        work ();
        Format.eprintf "--- profile: %s (jobs = %d) ---@\n%a@?" name
          jobs_target Qdp_obs.Prof.report ())
      groups

(* -- seq vs domains vs processes (BENCH_dist.json) ------------------

   One fully-seeded sharded workload (cross-validation + fault sweep)
   executed under four scheduling modes.  The JSON holds only
   deterministic content — per-mode result digests, the chaos pass's
   event accounting, and the cross-mode agreement bit — so the
   artifact is byte-stable across reruns at fixed seeds and CI can
   diff it.  Wall-clock seconds go to stderr only.

   Mode order is forced: both process modes must run before the
   domains mode, because OCaml 5 forbids [Unix.fork] once the Qdp_par
   pool has ever spawned a domain. *)

let dist_workload () =
  let spec = { Registry.default_spec with seed = 11; n = 16; r = 3; t = 3 } in
  let buf = Buffer.create 4096 in
  let st = Random.State.make [| 0x51 |] in
  List.iter
    (fun entry ->
      match
        Registry.cross_validate_demo ~trials:160 ~st spec entry
      with
      | None -> ()
      | Some results ->
          let id = (Registry.info entry).Registry.info_id in
          List.iter
            (fun (label, cs) ->
              List.iter
                (fun (c : Dqma.check) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s %s %s %.17g %.17g %d %.17g %b\n" id
                       label c.Dqma.check_strategy c.Dqma.analytic
                       c.Dqma.sampled c.Dqma.trials c.Dqma.tolerance
                       c.Dqma.agree))
                cs)
            results)
    (List.filter_map Registry.find [ "eq"; "gt" ]);
  let cfg =
    let open Qdp_faults.Sweep in
    {
      (default ~seed:11) with
      trials = 40;
      grid = default_grid ~points:5 ();
      protocols = Some [ "eq"; "rpls" ];
      spec;
    }
  in
  Buffer.add_string buf (Qdp_faults.Sweep.to_json (Qdp_faults.Sweep.run cfg));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let dump_dist () =
  Qdp_obs.set_enabled true;
  Qdp_dist.set_shard_timeout 2.0;
  Qdp_dist.set_chaos_seed 42;
  let dist_counters =
    [ "tasks"; "results"; "retries"; "crashes"; "hangs"; "corrupt"; "degraded" ]
  in
  let counter snap name =
    match Qdp_obs.Metrics.find snap ("dist." ^ name) with
    | Some (Qdp_obs.Metrics.Counter_v v) -> v
    | _ -> 0
  in
  let run_mode ~mode ~jobs ~workers ~chaos =
    Qdp_par.set_jobs jobs;
    Qdp_dist.set_workers workers;
    Qdp_dist.set_chaos chaos;
    let before = Qdp_obs.Metrics.snapshot () in
    let t0 = Qdp_obs.Clock.now () in
    let digest = dist_workload () in
    let dt = Qdp_obs.Clock.now () -. t0 in
    let after = Qdp_obs.Metrics.snapshot () in
    Printf.eprintf "dist: %-16s %6.2fs  (workers=%d jobs=%d chaos=%g)\n%!"
      mode dt workers jobs chaos;
    let events =
      if chaos > 0. then
        Printf.sprintf ",\"events\":{%s}"
          (String.concat ","
             (List.map
                (fun name ->
                  Printf.sprintf "\"%s\":%d" name
                    (counter after name - counter before name))
                dist_counters))
      else ""
    in
    ( digest,
      Printf.sprintf
        "{\"mode\":\"%s\",\"workers\":%d,\"jobs\":%d,\"chaos\":%g,\"digest\":\"%s\"%s}"
        mode workers jobs chaos digest events )
  in
  (* Explicit lets: a list literal would evaluate right-to-left and
     start the domain pool before the process modes get to fork. *)
  let procs = run_mode ~mode:"processes" ~jobs:1 ~workers:4 ~chaos:0.0 in
  let chaos = run_mode ~mode:"processes_chaos" ~jobs:1 ~workers:4 ~chaos:0.5 in
  let doms = run_mode ~mode:"domains" ~jobs:4 ~workers:0 ~chaos:0.0 in
  let seq = run_mode ~mode:"seq" ~jobs:1 ~workers:0 ~chaos:0.0 in
  let modes = [ procs; chaos; doms; seq ] in
  let digests = List.map fst modes in
  let agree = List.for_all (String.equal (List.hd digests)) digests in
  let oc = open_out "BENCH_dist.json" in
  Printf.fprintf oc "{\"modes\":[\n%s\n],\n\"agree\":%b}\n"
    (String.concat ",\n" (List.map snd modes))
    agree;
  close_out oc;
  if not agree then begin
    prerr_endline "dist: modes disagree — sharding broke determinism";
    exit 1
  end

let () =
  if Array.exists (String.equal "--profile") Sys.argv then
    Qdp_obs.Prof.set_enabled true

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "dist" then (
    dump_dist ();
    exit 0)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "perf" then (
    dump_perf ();
    exit 0)

let () =
  dump_obs ();
  dump_perf ();
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let results = benchmark () in
  let results = analyze results in
  img (window, results) |> eol |> output_image

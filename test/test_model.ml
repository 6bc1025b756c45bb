(* Tests for the Qdp_model calibrated cost model: least-squares fit
   recovery on synthetic data, clamping, crossover math, the
   decide precedence chain (forced > installed > call-site default),
   overflow-safe MAC estimates, the fixed JSON shape, and the central
   dispatch contract — whatever the model decides, results
   are byte-identical to the forced-sequential path at every job and
   worker count.

   Ordering matters: the worker-process identity test forks, so it
   must run before anything spawns a pool domain (OCaml 5 forbids
   fork after the first Domain.spawn).  Jobs stay pinned at 1 until
   the final jobs-matrix test. *)

module Model = Qdp_model
module Registry = Qdp_core.Registry
open Qdp_linalg

let () = Qdp_core.Protocols.init ()
let () = Qdp_par.set_jobs 1
let () = Qdp_par.set_oversubscribe true

let checkb = Alcotest.check Alcotest.bool

(* Synthetic observations on an exact line y = a + b*x. *)
let line_obs ~kernel ~path ~a ~b ~alloc xs =
  List.map
    (fun x ->
      {
        Model.o_kernel = kernel;
        o_path = path;
        o_macs = x;
        o_seconds = a +. (b *. x);
        o_minor = alloc *. x;
      })
    xs

let xs = [ 1e3; 2e3; 4e3; 8e3; 16e3 ]

let the_kernel m name =
  match
    List.find_opt (fun k -> k.Model.k_name = name) m.Model.m_kernels
  with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s missing from model" name

(* --- fitting --- *)

let test_fit_recovery () =
  let m =
    Model.of_observations ~jobs:4
      (line_obs ~kernel:"k" ~path:"seq" ~a:1e-5 ~b:2e-9 ~alloc:3. xs)
  in
  match (the_kernel m "k").Model.k_seq with
  | None -> Alcotest.fail "no seq fit"
  | Some f ->
      Alcotest.(check (float 1e-12)) "intercept recovered" 1e-5 f.Model.f_a;
      Alcotest.(check (float 1e-15)) "slope recovered" 2e-9 f.Model.f_b;
      Alcotest.(check (float 1e-9)) "alloc slope recovered" 3. f.Model.f_alloc;
      Alcotest.(check (float 1e-9)) "exact line fits perfectly" 1. f.Model.f_r2;
      Alcotest.(check int) "sample count" (List.length xs) f.Model.f_n

let test_fit_degenerate () =
  (* under two samples, or all samples at one MAC count: no fit *)
  checkb "one sample: no fit" true
    (Model.fit_samples [ (1e3, 1e-3, 0.) ] = None);
  checkb "no spread: no fit" true
    (Model.fit_samples [ (1e3, 1e-3, 0.); (1e3, 2e-3, 0.) ] = None);
  (* a decreasing line would fit a negative slope; both coefficients
     are clamped at zero so predictions stay non-negative *)
  match
    Model.fit_samples (List.map (fun x -> (x, 1. -. (x *. 1e-5), 0.)) xs)
  with
  | None -> Alcotest.fail "clamped fit missing"
  | Some f ->
      Alcotest.(check (float 0.)) "negative slope clamped" 0. f.Model.f_b;
      checkb "intercept non-negative" true (f.Model.f_a >= 0.)

let test_crossover () =
  let fit a b = { Model.f_a = a; f_b = b; f_alloc = 0.; f_n = 5; f_r2 = 1. } in
  (match Model.crossover ~seq:(fit 0. 2e-9) ~par:(fit 1e-6 1e-9) with
  | Some c -> Alcotest.(check (float 1e-6)) "break-even point" 1000. c
  | None -> Alcotest.fail "crossover expected");
  checkb "par slope no better: never profitable" true
    (Model.crossover ~seq:(fit 0. 1e-9) ~par:(fit 0. 1e-9) = None);
  (* par cheaper even at zero work: crossover clamps to always-par *)
  match Model.crossover ~seq:(fit 1e-5 2e-9) ~par:(fit 1e-6 1e-9) with
  | Some c -> Alcotest.(check (float 0.)) "clamped at zero" 0. c
  | None -> Alcotest.fail "crossover expected"

let test_macs_overflow_safe () =
  (* 2^16 on every axis: the int product 2^64 would wrap negative on
     63-bit ints (this guards Mat.tensor's profitability estimate);
     the float estimate stays exact-enough and positive *)
  let n = 65536 in
  let m4 = Model.macs4 n n n n in
  checkb "no wraparound" true (m4 > 0.);
  Alcotest.(check (float 1.)) "exact float product" (2. ** 64.) m4;
  Alcotest.(check (float 0.)) "macs2" 12. (Model.macs2 3 4);
  Alcotest.(check (float 0.)) "macs3" 60. (Model.macs3 3 4 5)

(* --- decide precedence --- *)

let with_model m f =
  Model.install m;
  Fun.protect ~finally:Model.clear f

let with_force p f =
  Model.force (Some p);
  Fun.protect ~finally:(fun () -> Model.force None) f

(* A model whose "k" crossover is exactly 1000 MACs, and whose "never"
   kernel has no parallel fit at all. *)
let fixture_model () =
  Model.of_observations ~jobs:4
    (line_obs ~kernel:"k" ~path:"seq" ~a:0. ~b:2e-9 ~alloc:0. xs
    @ line_obs ~kernel:"k" ~path:"par" ~a:1e-6 ~b:1e-9 ~alloc:0. xs
    @ line_obs ~kernel:"never" ~path:"seq" ~a:0. ~b:1e-9 ~alloc:0. xs)

let test_decide_precedence () =
  Model.clear ();
  Model.force None;
  checkb "no model: call-site default wins" true
    (Model.decide ~kernel:"k" ~macs:1e6 ~default:true);
  checkb "no model: default false too" false
    (Model.decide ~kernel:"k" ~macs:1e6 ~default:false);
  with_model (fixture_model ()) (fun () ->
      (* the fitted crossover sits at 1000 MACs up to rounding of the
         recovered coefficients; probe clear of the boundary *)
      checkb "below crossover: sequential" false
        (Model.decide ~kernel:"k" ~macs:900. ~default:true);
      checkb "above crossover: parallel" true
        (Model.decide ~kernel:"k" ~macs:1100. ~default:false);
      checkb "no par fit: never parallel" false
        (Model.decide ~kernel:"never" ~macs:1e12 ~default:true);
      checkb "unknown kernel: default" true
        (Model.decide ~kernel:"mystery" ~macs:1. ~default:true);
      with_force `Seq (fun () ->
          checkb "forced seq beats the installed model" false
            (Model.decide ~kernel:"k" ~macs:1e9 ~default:true));
      with_force `Par (fun () ->
          checkb "forced par beats the installed model" true
            (Model.decide ~kernel:"never" ~macs:1. ~default:false)));
  checkb "cleared: default again" true
    (Model.decide ~kernel:"k" ~macs:1. ~default:true)

let test_model_json_shape () =
  let m = fixture_model () in
  let j = Qdp_obs.Json.parse (Model.to_json m) in
  (match Qdp_obs.Json.member "cost_model" j with
  | Some (Qdp_obs.Json.Arr entries) ->
      Alcotest.(check int) "one entry per kernel" 2 (List.length entries);
      List.iter
        (fun e ->
          List.iter
            (fun key ->
              if Qdp_obs.Json.member key e = None then
                Alcotest.failf "key %s missing" key)
            [ "kernel"; "seq"; "par"; "crossover_macs";
              "par_speedup_at_1e6_macs" ])
        entries
  | _ -> Alcotest.fail "cost_model array missing");
  (* fixed shape: serializing twice is byte-identical *)
  Alcotest.(check string) "deterministic serialization" (Model.to_json m)
    (Model.to_json m)

(* --- dispatch identity ---------------------------------------------

   The contract every call site relies on: the model only ever picks
   between bit-identical execution paths.  We run each instrumented
   workload under forced-sequential, forced-parallel, an always-parallel
   installed model, and a never-parallel installed model, and require
   byte-identical digests. *)

let always_par_model () =
  let kernels = [ "mat.mul"; "mat.tensor"; "batch.gram"; "batch.apply_into" ] in
  Model.of_observations ~jobs:4
    (List.concat_map
       (fun k ->
         line_obs ~kernel:k ~path:"seq" ~a:0. ~b:2e-9 ~alloc:0. xs
         @ line_obs ~kernel:k ~path:"par" ~a:0. ~b:1e-12 ~alloc:0. xs)
       kernels)

let never_par_model () =
  let kernels = [ "mat.mul"; "mat.tensor"; "batch.gram"; "batch.apply_into" ] in
  Model.of_observations ~jobs:4
    (List.concat_map
       (fun k -> line_obs ~kernel:k ~path:"seq" ~a:0. ~b:1e-9 ~alloc:0. xs)
       kernels)

(* Each dispatch mode the matrix exercises. *)
let modes =
  [
    ("forced-seq", fun f -> with_force `Seq f);
    ("forced-par", fun f -> with_force `Par f);
    ("model-always-par", fun f -> with_model (always_par_model ()) f);
    ("model-never-par", fun f -> with_model (never_par_model ()) f);
  ]

let estimate_digest seed =
  let st = Random.State.make [| seed; 77 |] in
  let p =
    Qdp_network.Runtime.estimate_acceptance ~st ~trials:500 (fun s ->
        Random.State.float s 1. < 0.3)
  in
  Printf.sprintf "%.17g" p

let gram_digest seed =
  let st = Random.State.make [| seed |] in
  let b =
    Batch.init 256 24 (fun _ _ ->
        Cx.make
          (Random.State.float st 2. -. 1.)
          (Random.State.float st 2. -. 1.))
  in
  let g = Batch.gram b in
  let buf = Buffer.create 4096 in
  for i = 0 to 23 do
    for j = 0 to 23 do
      let z = Mat.get g i j in
      Buffer.add_string buf
        (Printf.sprintf "%.17g %.17g;" z.Complex.re z.Complex.im)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One conformance demo per protocol model (the distinct backends the
   registry realizes), digested over every analytic/sampled check. *)
let demo_entries =
  lazy
    (let seen = Hashtbl.create 8 in
     List.filter
       (fun e ->
         let m = (Registry.info e).Registry.info_model in
         if Hashtbl.mem seen m then false
         else begin
           Hashtbl.add seen m ();
           true
         end)
       (List.filter
          (fun e -> (Registry.info e).Registry.info_conformance)
          (Registry.all ())))

let demo_digest seed entry =
  let spec =
    { Registry.default_spec with Registry.seed; n = 16; r = 3; t = 3 }
  in
  let st = Random.State.make [| seed; 5 |] in
  match Registry.cross_validate_demo ~trials:120 ~st spec entry with
  | None -> "no-demo"
  | Some results ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun (label, cs) ->
          List.iter
            (fun (c : Qdp_core.Dqma.check) ->
              Buffer.add_string buf
                (Printf.sprintf "%s %s %.17g %.17g %b;" label
                   c.Qdp_core.Dqma.check_strategy c.Qdp_core.Dqma.analytic
                   c.Qdp_core.Dqma.sampled c.Qdp_core.Dqma.agree))
            cs)
        results;
      Digest.to_hex (Digest.string (Buffer.contents buf))

let workloads seed =
  ("estimate_acceptance", fun () -> estimate_digest seed)
  :: ("batch.gram", fun () -> gram_digest seed)
  :: List.map
       (fun e ->
         ( "demo:" ^ (Registry.info e).Registry.info_id,
           fun () -> demo_digest seed e ))
       (Lazy.force demo_entries)

let check_modes_agree ~ctx seed =
  List.iter
    (fun (wname, work) ->
      let reference = ref None in
      List.iter
        (fun (mname, in_mode) ->
          let d = in_mode work in
          match !reference with
          | None -> reference := Some d
          | Some r ->
              if r <> d then
                Alcotest.failf "%s: %s under %s diverged from forced-seq"
                  ctx wname mname)
        modes)
    (workloads seed)

(* Forks per shard: must run while the pool is still cold (jobs = 1
   throughout, workers 0 then 2). *)
let test_dispatch_identity_workers () =
  List.iter
    (fun workers ->
      Qdp_dist.set_workers workers;
      Fun.protect ~finally:(fun () -> Qdp_dist.set_workers 0) @@ fun () ->
      check_modes_agree ~ctx:(Printf.sprintf "workers=%d" workers) 42)
    [ 0; 2 ]

(* Spawns pool domains: keep last. *)
let qcheck_dispatch_identity_jobs =
  QCheck.Test.make ~count:8
    ~name:"model dispatch byte-identical to forced-seq at jobs 1 and 4"
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.iter
        (fun jobs ->
          let jobs0 = Qdp_par.jobs () in
          Qdp_par.set_jobs jobs;
          Fun.protect ~finally:(fun () -> Qdp_par.set_jobs jobs0)
          @@ fun () ->
          check_modes_agree ~ctx:(Printf.sprintf "jobs=%d" jobs) seed)
        [ 1; 4 ];
      true)

(* Cross-jobs identity of the digests themselves: the same seed gives
   the same bytes at jobs 1 and jobs 4, under the installed model. *)
let test_dispatch_identity_cross_jobs () =
  with_model (always_par_model ()) @@ fun () ->
  let at jobs =
    let jobs0 = Qdp_par.jobs () in
    Qdp_par.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Qdp_par.set_jobs jobs0) @@ fun () ->
    List.map (fun (n, w) -> (n, w ())) (workloads 7)
  in
  List.iter2
    (fun (n, d1) (_, d4) ->
      Alcotest.(check string) (n ^ " identical at jobs 1 and 4") d1 d4)
    (at 1) (at 4)

let () =
  Alcotest.run "model"
    [
      ( "fit",
        [
          Alcotest.test_case "recovery on synthetic line" `Quick
            test_fit_recovery;
          Alcotest.test_case "degenerate inputs + clamping" `Quick
            test_fit_degenerate;
          Alcotest.test_case "crossover math" `Quick test_crossover;
          Alcotest.test_case "overflow-safe MACs" `Quick
            test_macs_overflow_safe;
        ] );
      ( "decide",
        [ Alcotest.test_case "precedence chain" `Quick test_decide_precedence ]
      );
      ( "serialization",
        [
          Alcotest.test_case "fixed JSON shape" `Quick test_model_json_shape;
        ] );
      ( "dispatch",
        [
          (* fork-based cases first: the pool must still be cold *)
          Alcotest.test_case "identity across workers" `Quick
            test_dispatch_identity_workers;
          QCheck_alcotest.to_alcotest qcheck_dispatch_identity_jobs;
          Alcotest.test_case "identity across jobs" `Quick
            test_dispatch_identity_cross_jobs;
        ] );
    ]

(* Startup self-benchmark for the Qdp_model cost model: time each
   dense kernel over a small size ladder with dispatch forced to the
   sequential and then the parallel path, fit both, install.  Probes
   use deterministic synthetic data (an LCG, no Random dependency) and
   adapt repetition counts to the clock so the whole calibration stays
   in the tens-of-milliseconds range on a warm host. *)

(* Deterministic fill in [-0.5, 0.5), dense (no zeros to skip) so the
   probes time the full-MAC path. *)
let lcg_float state =
  state := ((!state * 25214903917) + 11) land 0x3FFFFFFFFFFF;
  float_of_int ((!state lsr 16) land 0xFFFFF) /. 1048576. -. 0.5

let fill_mat rows cols seed =
  let st = ref seed in
  Mat.init rows cols (fun _ _ ->
      { Complex.re = lcg_float st; im = lcg_float st })

let fill_batch dim count seed =
  let st = ref seed in
  Batch.init dim count (fun _ _ -> { Complex.re = lcg_float st; im = 0. })

(* One timed measurement: per-call (seconds, minor words), repetitions
   grown until the sample is at least [min_s] of wall clock. *)
let min_probe_s = 3e-4
let max_reps = 64

let time_call f =
  ignore (f ());
  (* warm: first call pays page faults and lazy pool spawn *)
  let rec go reps =
    let g0 = Gc.quick_stat () in
    let t0 = Qdp_obs.Clock.now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let dt = Float.max 0. (Qdp_obs.Clock.now () -. t0) in
    let g1 = Gc.quick_stat () in
    if dt < min_probe_s && reps < max_reps then go (min max_reps (reps * 4))
    else
      let n = float_of_int reps in
      (dt /. n, Float.max 0. (g1.Gc.minor_words -. g0.Gc.minor_words) /. n)
  in
  go 1

type probe = { p_kernel : string; p_macs : float; p_run : unit -> unit }

let probes () =
  let mul =
    List.map
      (fun n ->
        let a = fill_mat n n 1 and b = fill_mat n n 2 in
        {
          p_kernel = "mat.mul";
          p_macs = Qdp_model.macs3 n n n;
          p_run = (fun () -> ignore (Mat.mul a b));
        })
      [ 16; 32; 64; 96 ]
  in
  let tensor =
    List.map
      (fun (na, nb) ->
        let a = fill_mat na na 3 and b = fill_mat nb nb 4 in
        {
          p_kernel = "mat.tensor";
          p_macs = Qdp_model.macs4 na na nb nb;
          p_run = (fun () -> ignore (Mat.tensor a b));
        })
      [ (8, 8); (12, 12); (16, 16); (16, 32) ]
  in
  let gram =
    List.map
      (fun (d, n) ->
        let b = fill_batch d n 5 in
        {
          p_kernel = "batch.gram";
          p_macs = Qdp_model.macs2 d n *. float_of_int (n + 1) /. 2.;
          p_run = (fun () -> ignore (Batch.gram b));
        })
      [ (256, 16); (512, 32); (1024, 48); (1024, 64) ]
  in
  let apply =
    List.map
      (fun (m, c) ->
        let op = fill_mat m m 6 in
        let src = fill_batch m c 7 and dst = Batch.create m c in
        {
          p_kernel = "batch.apply_into";
          p_macs = Qdp_model.macs3 m m c;
          p_run = (fun () -> Batch.apply_into op ~src ~dst);
        })
      [ (8, 32); (16, 64); (32, 128); (64, 128) ]
  in
  mul @ tensor @ gram @ apply

(* Two observations per (probe, path): the fit gets a noise estimate
   at every ladder point, not just across points. *)
let obs_per_probe = 2

let calibrate () =
  let saved = Qdp_model.forced () in
  Fun.protect ~finally:(fun () -> Qdp_model.force saved) @@ fun () ->
  let ps = probes () in
  let measure path tag =
    Qdp_model.force (Some path);
    List.concat_map
      (fun p ->
        List.init obs_per_probe (fun _ ->
            let seconds, minor = time_call p.p_run in
            {
              Qdp_model.o_kernel = p.p_kernel;
              o_path = tag;
              o_macs = p.p_macs;
              o_seconds = seconds;
              o_minor = minor;
            }))
      ps
  in
  let seq_obs = measure `Seq "seq" in
  (* A clamped one-domain pool runs the same sequential loops whatever
     the decision; tag what actually executes so the fit does not see
     the same population twice under two labels. *)
  let par_tag = if Qdp_par.effective_jobs () > 1 then "par" else "seq" in
  let par_obs = if par_tag = "par" then measure `Par "par" else [] in
  Qdp_model.of_observations
    ~jobs:(Qdp_par.effective_jobs ())
    (seq_obs @ par_obs)

let autotune () =
  let m = calibrate () in
  Qdp_model.install m;
  m

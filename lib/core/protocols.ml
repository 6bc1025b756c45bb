open Qdp_codes

(* Every entry below instantiates its protocol from the uniform
   [Registry.spec]; [demo_fix] pins the fields the historical demo
   suite used (so [tables.exe check] output is reproducible), and
   [demo] builds one yes and one no instance from the shared context.
   Entries with a [backend] have a message-passing realization, staged
   as [*_prepare spec inst prover]: the differential harness checks
   the analytic engine against it, and the fault sweep runs it under
   faults. *)

let copy_pair a b = (Gf2.copy a, Gf2.copy b)

let paper_reps (s : Registry.spec) = Eq_path.paper_repetitions ~r:s.r

let eq_params (s : Registry.spec) =
  Eq_path.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n ~r:s.r ()

let eq_prepare s (x, y) strategy =
  Runtime_eq.prepare (eq_params s) x y strategy

let eq_entry =
  Registry.Entry
    {
      meta =
        {
          id = "eq";
          summary = "Equality on a path of r+1 nodes";
          reference = "Thm 19, Alg 3-4";
          cost_formula = "O(r^2 log n) qubits/node";
        };
      demo_fix = Fun.id;
      protocol = (fun s -> Dqma.eq_path (eq_params s));
      demo =
        (fun ctx -> (copy_pair ctx.x ctx.x, copy_pair ctx.x ctx.y));
      backend = Some eq_prepare;
      quantum_links = true;
      conformance = true;
    }

let eqt_params (s : Registry.spec) =
  Eq_tree.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n ~r:s.r ()

let multi_of_ctx (ctx : Registry.demo_ctx) =
  let s = ctx.demo_spec in
  let g, terminals = Registry.topology_graph s.topology ~t:s.t in
  let mk inputs = { Dqma.graph = g; terminals; inputs } in
  ( mk (Array.make s.t (Gf2.copy ctx.x)),
    mk
      (Array.init s.t (fun i ->
           if i = s.t - 1 then Gf2.copy ctx.y else Gf2.copy ctx.x)) )

let eqt_prepare s (mi : Dqma.multi_instance) strategy =
  Runtime_tree.prepare (eqt_params s) mi.Dqma.graph
    ~terminals:mi.Dqma.terminals ~inputs:mi.Dqma.inputs strategy

let eqt_entry =
  Registry.Entry
    {
      meta =
        {
          id = "eqt";
          summary = "Equality with t terminals on a network";
          reference = "Thm 19, Alg 5";
          cost_formula = "O(r^2 log n) qubits/node";
        };
      (* the historical demo ran the tree protocol at height 2 but with
         the r=4 path amplification *)
      demo_fix =
        (fun s -> { s with r = 2; repetitions = Some (paper_reps s) });
      protocol = (fun s -> Dqma.eq_tree (eqt_params s));
      demo = multi_of_ctx;
      backend = Some eqt_prepare;
      quantum_links = true;
      conformance = true;
    }

let gt_params (s : Registry.spec) =
  Gt.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n ~r:s.r ()

let gt_prepare s (x, y) prover =
  Runtime_gt.prepare (gt_params s) x y (Runtime_gt.of_prover prover)

let gt_entry =
  Registry.Entry
    {
      meta =
        {
          id = "gt";
          summary = "Greater-than on a path";
          reference = "Thm 26, Alg 7";
          cost_formula = "O(r^2 log^2 n) qubits/node";
        };
      demo_fix = Fun.id;
      protocol = (fun s -> Dqma.gt (gt_params s));
      demo =
        (fun ctx -> (copy_pair ctx.big ctx.small, copy_pair ctx.small ctx.big));
      backend = Some gt_prepare;
      quantum_links = true;
      conformance = true;
    }

let relay_entry =
  Registry.Entry
    {
      meta =
        {
          id = "relay";
          summary = "Equality with relay points on long paths";
          reference = "Thm 22, Alg 6";
          cost_formula = "O(n^{2/3} log n) qubits/node";
        };
      demo_fix = (fun s -> { s with r = 12 });
      protocol =
        (fun s -> Dqma.relay (Relay.make ~seed:s.seed ~n:s.n ~r:s.r ()));
      demo = (fun ctx -> (copy_pair ctx.x ctx.x, copy_pair ctx.x ctx.y));
      backend = None;
      quantum_links = false;
      conformance = true;
    }

let dqcma_entry =
  Registry.Entry
    {
      meta =
        {
          id = "dqcma";
          summary = "Equality with classical proofs, quantum messages";
          reference = "Sec 1.5";
          cost_formula = "n bits/node proof";
        };
      demo_fix = (fun s -> { s with repetitions = Some 64 });
      protocol =
        (fun s ->
          Dqma.dqcma
            (Variants.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n
               ~r:s.r ()));
      demo = (fun ctx -> (copy_pair ctx.x ctx.x, copy_pair ctx.x ctx.y));
      backend = None;
      quantum_links = false;
      conformance = true;
    }

let dma_prepare (s : Registry.spec) (x, y) prover =
  Runtime_dma.prepare ~r:s.r x y prover

let dma_entry =
  Registry.Entry
    {
      meta =
        {
          id = "dma";
          summary = "Equality in classical dMA, full string at every node";
          reference = "Sec 1.1 baseline";
          cost_formula = "n bits/node";
        };
      demo_fix = Fun.id;
      protocol = (fun s -> Dqma.dma_trivial ~n:s.n ~r:s.r);
      demo = (fun ctx -> (copy_pair ctx.x ctx.x, copy_pair ctx.x ctx.y));
      backend = Some dma_prepare;
      quantum_links = false;
      conformance = true;
    }

let rpls_params (s : Registry.spec) =
  { Rpls.n = s.n; r = s.r; parity_checks = s.d }

let rpls_prepare s (x, y) prover = Rpls.prepare (rpls_params s) x y prover

let rpls_entry =
  Registry.Entry
    {
      meta =
        {
          id = "rpls";
          summary = "Randomized proof-labeling scheme for equality";
          reference = "FPSP19 (Sec 1.1)";
          cost_formula = "n-bit proofs, ell-bit messages";
        };
      demo_fix = (fun s -> { s with d = 4 });
      protocol = (fun s -> Dqma.rpls (rpls_params s));
      demo = (fun ctx -> (copy_pair ctx.x ctx.x, copy_pair ctx.x ctx.y));
      backend = Some rpls_prepare;
      quantum_links = false;
      conformance = true;
    }

(* The interactive family: one entry per turn count, so the registry,
   fault sweeps and the turns experiment can address each variant.
   Conformance is off (they are additions, not paper tables); the
   demo/bench suites still cross-validate and fault-sweep them. *)
let ieq_params turns (s : Registry.spec) =
  {
    Ieq.n = s.Registry.n;
    r = s.Registry.r;
    turns;
    repetitions = Option.value s.Registry.repetitions ~default:2;
  }

(* Demo pair for the interactive family.  The no-instance is the
   root-rich {!Ieq.adversarial_pair}, so every attack accepts with the
   protocol's worst-case probability instead of an instance-specific 0
   — that exercises the probabilistic branch of cross-validation and
   gives the fault sweep's contractivity gate its genuine
   noiseless-soundness slack. *)
let ieq_demo params ctx =
  let x, y = Ieq.adversarial_pair params ctx.Registry.x in
  (copy_pair x x, (x, y))

let ieq_entry turns =
  let meta : Registry.meta =
    match turns with
    | 3 ->
        {
          id = "ieq3";
          summary = "3-turn interactive equality (public-coin chain)";
          reference = "LMN22 (arXiv:2210.01390)";
          cost_formula = "O(log n) bits/node, 3 turns";
        }
    | 2 ->
        {
          id = "ieq2";
          summary = "2-turn interactive equality (coins, then response)";
          reference = "LMN22 (arXiv:2210.01390)";
          cost_formula = "O(log n) bits/node, 2 turns";
        }
    | _ ->
        {
          id = "ieq1";
          summary = "Turn-reduced equality: full table certificate";
          reference = "LMN22 (arXiv:2210.01390, turn reduction)";
          cost_formula = "O(n log n) bits/node, 1 turn";
        }
  in
  let ieq_prepare s (x, y) prover =
    Runtime_ieq.prepare (ieq_params turns s) x y prover
  in
  Registry.Entry
    {
      meta;
      demo_fix = Fun.id;
      protocol = (fun s -> Dqma.ieq (ieq_params turns s));
      demo = (fun ctx -> ieq_demo (ieq_params turns ctx.demo_spec) ctx);
      backend = Some ieq_prepare;
      quantum_links = false;
      conformance = false;
    }

let seteq_entry =
  Registry.Entry
    {
      meta =
        {
          id = "seteq";
          summary = "Set equality via set fingerprints";
          reference = "Sec 1.4";
          cost_formula = "O(k r^2 log n) qubits/node";
        };
      demo_fix =
        (fun s -> { s with t = 3; repetitions = Some (paper_reps s) });
      protocol =
        (fun s ->
          Dqma.set_eq
            (Set_eq.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n
               ~k:s.t ~r:s.r ()));
      demo =
        (fun ctx ->
          let s = ctx.demo_spec in
          let k = s.t in
          let set = Array.init k (fun i -> Gf2.of_int ~width:s.n (i + 5)) in
          let perm = Array.init k (fun i -> set.((i + k - 1) mod k)) in
          let other =
            Array.init k (fun i -> Gf2.of_int ~width:s.n (i + 900))
          in
          ((set, perm), (Array.map Gf2.copy set, other)));
      backend = None;
      quantum_links = false;
      conformance = true;
    }

let rv_entry =
  Registry.Entry
    {
      meta =
        {
          id = "rv";
          summary = "Ranking verification: is terminal i's input j-th largest?";
          reference = "Thm 29, Alg 8";
          cost_formula = "O(t r^2 log^2 n) qubits/node";
        };
      demo_fix = Fun.id;
      protocol =
        (fun s ->
          Dqma.rv
            (Rv.make ?repetitions:s.repetitions ~seed:s.seed ~n:s.n
               ~r:(max 1 s.r) ()));
      demo =
        (fun ctx ->
          let s = ctx.demo_spec in
          let g, terminals = Registry.topology_graph s.topology ~t:s.t in
          let inputs =
            Array.init s.t (fun k -> Gf2.of_int ~width:s.n (k + 1))
          in
          let mk i j =
            {
              Dqma.rv_graph = g;
              rv_terminals = terminals;
              rv_inputs = inputs;
              rv_i = i;
              rv_j = j;
            }
          in
          (* terminal t-1 holds the largest input, terminal 0 the
             smallest, so rank 1 is true for the former only *)
          (mk (s.t - 1) 1, mk 0 1));
      backend = None;
      quantum_links = false;
      conformance = false;
    }

let ham_entry =
  Registry.Entry
    {
      meta =
        {
          id = "ham";
          summary = "Pairwise Hamming-closeness via the one-way compiler";
          reference = "Thm 30/32, Alg 9";
          cost_formula = "O(t^2 r^2 d log^2 n) qubits/node";
        };
      demo_fix = Fun.id;
      protocol =
        (fun s ->
          let proto = Qdp_commcc.Oneway.ham ~seed:s.seed ~n:s.n ~d:s.d in
          let r = max 1 s.r in
          Dqma.oneway_forall proto
            (Oneway_compiler.make ?repetitions:s.repetitions ~amplification:2
               ~r ~t:s.t ~n:s.n ()));
      demo = multi_of_ctx;
      backend = None;
      quantum_links = false;
      conformance = false;
    }

let initialized = ref false

let init () =
  if not !initialized then begin
    initialized := true;
    List.iter Registry.register
      [
        eq_entry;
        eqt_entry;
        gt_entry;
        relay_entry;
        dqcma_entry;
        dma_entry;
        rpls_entry;
        seteq_entry;
        rv_entry;
        ham_entry;
        ieq_entry 3;
        ieq_entry 2;
        ieq_entry 1;
      ]
  end

type experiment = {
  id : string;
  title : string;
  jobs : full:bool -> Job.t list;
  render :
    full:bool ->
    seed:int ->
    (string * Job.result) list ->
    Format.formatter ->
    unit;
}

let all =
  [
    {
      id = "fig2";
      title = "Average Loss Interval method under idealized periodic loss";
      jobs = Fig2.jobs;
      render = Fig2.render;
    };
    {
      id = "fig3";
      title = "Oscillations without interpacket-spacing adjustment (and fig4 with)";
      jobs = Fig3_4.jobs;
      render = Fig3_4.render;
    };
    {
      id = "fig5";
      title = "Loss-event fraction vs Bernoulli loss probability";
      jobs = Fig5.jobs;
      render = Fig5.render;
    };
    {
      id = "fig6";
      title = "Normalized TCP throughput vs link rate and flow count";
      jobs = Fig6.jobs;
      render = Fig6.render;
    };
    {
      id = "fig7";
      title = "Per-flow normalized throughput scatter at 15 Mb/s RED";
      jobs = Fig7.jobs;
      render = Fig7.render;
    };
    {
      id = "fig8";
      title = "Per-flow throughput over time at 0.15 s bins";
      jobs = Fig8.jobs;
      render = Fig8.render;
    };
    {
      id = "fig9";
      title = "Equivalence ratio and CoV vs timescale (steady state; fig10 too)";
      jobs = Fig9_10.jobs;
      render = Fig9_10.render;
    };
    {
      id = "fig11";
      title = "ON/OFF background traffic: loss, equivalence, CoV (figs 11-13)";
      jobs = Fig11_13.jobs;
      render = Fig11_13.render;
    };
    {
      id = "fig14";
      title = "Queue dynamics: 40 TCP vs 40 TFRC flows";
      jobs = Fig14.jobs;
      render = Fig14.render;
    };
    {
      id = "fig15";
      title = "Emulated Internet paths: fairness and smoothness (figs 15-17)";
      jobs = Fig15_17.jobs;
      render = Fig15_17.render;
    };
    {
      id = "fig18";
      title = "Loss predictor quality vs history size and weighting";
      jobs = Fig18.jobs;
      render = Fig18.render;
    };
    {
      id = "fig19";
      title = "Rate increase after congestion ends (Appendix A.1)";
      jobs = Fig19.jobs;
      render = Fig19.render;
    };
    {
      id = "fig20";
      title = "Rate halving under persistent congestion (figs 20-21, A.2)";
      jobs = Fig20_21.jobs;
      render = Fig20_21.render;
    };
    {
      id = "tableA1";
      title = "Closed-form increase bound (Equation 4)";
      jobs = Increase_bound.jobs;
      render = Increase_bound.render;
    };
    {
      id = "variants";
      title = "TFRC vs TCP flavors and timer granularities (Section 4.1)";
      jobs = Variants.jobs;
      render = Variants.render;
    };
    {
      id = "phase";
      title = "Phase effects over DropTail and the interpacket-spacing fix (Section 4.3)";
      jobs = Phase_effects.jobs;
      render = Phase_effects.render;
    };
    {
      id = "traffic-model";
      title = "Self-similarity of the ON/OFF background model ([WTSW95])";
      jobs = Traffic_model.jobs;
      render = Traffic_model.render;
    };
    {
      id = "resilience";
      title =
        "Chaos matrix: outages, flapping, reordering, feedback blackouts, \
         route changes";
      jobs = Resilience.jobs;
      render = Resilience.render;
    };
    {
      id = "topology";
      title =
        "Failure impact on a routed WAN: partition vs re-route, static \
         analysis vs chaos-layer dynamics";
      jobs = Topo_impact.jobs;
      render = Topo_impact.render;
    };
    {
      id = "ablations";
      title =
        "Design-choice ablations: history, discounting, RTT gain, feedback, \
         burstiness, ECN";
      jobs = Ablations.jobs;
      render = Ablations.render;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
(* Identity of one concrete grid instantiation — everything that determines
   the cell set and each cell's result. A checkpoint written under one
   grid id must never be resumed under another (different seed or scale =
   different results), so the id doubles as the checkpoint filename. *)
let grid_id e ~full ~seed =
  Printf.sprintf "%s.seed%d.%s" e.id seed (if full then "full" else "quick")

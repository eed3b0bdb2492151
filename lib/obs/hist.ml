(* Thin facade over the Metrics registry so callers can say [Obs.Hist.t]
   without reaching into the full registry API. The data lives in
   Metrics: histograms participate in snapshots, reset, and the
   OpenMetrics exposition like every other metric. *)

type t = Metrics.hist

let create = Metrics.hist
let runtime = Metrics.runtime_hist
let log_bounds = Metrics.log_bounds
let linear_bounds = Metrics.linear_bounds
let observe = Metrics.hist_observe
let observe_int = Metrics.hist_observe_int
let time = Metrics.hist_time
let count = Metrics.hist_count
let max_value = Metrics.hist_max
let quantile = Metrics.hist_quantile
let merge_into = Metrics.hist_merge_into

#!/bin/bash
# Runs every paper-table/figure bench sequentially, logging to bench_logs/.
set -u
cd "$(dirname "$0")"
mkdir -p bench_logs
for b in table1_embedding_sizes fig6_seq_len_distribution table_uniqueness \
         table3_loss_backbone table4_feature_crop table_arch_ablation \
         table5_vs_tenset_mlp table6_mtl_cpu table7_mtl_gpu table9_cross_arch \
         fig9_mtl_data_size table8_transfer table_substrate_ablation \
         fig11_tuning_curves fig10_tuning_time fig12_speedup_vs_tenset \
         fig13_speedup_vs_ansor; do
  echo "=== RUNNING $b ($(date +%H:%M:%S)) ==="
  cargo bench -p tlp-bench --bench "$b" >bench_logs/$b.log 2>&1
  echo "=== DONE $b (exit $?) ==="
done
echo "=== SUITE COMPLETE ==="

#include "specs.hpp"

namespace perfbench {

using distmcu::model::TransformerConfig;
using distmcu::runtime::DeploymentSpec;
using distmcu::runtime::KvLayout;
using distmcu::runtime::Precision;

DeploymentSpec paper_spec() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama";
  cfg.vocab_size = 512;
  cfg.validate();
  DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 8;
  return spec;
}

namespace {

/// Invariant-suite-sized blocks: the functional numerics stay cheap at
/// thousands of requests per pass.
TransformerConfig fleet_llm_model() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "llm";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 128;
  cfg.ar_context = 64;
  cfg.prompt_len = 16;
  cfg.validate();
  return cfg;
}

}  // namespace

DeploymentSpec fleet_llm_spec(int chips) {
  DeploymentSpec spec;
  spec.model = fleet_llm_model();
  spec.chips = chips;
  spec.prefill_chunk_tokens = 4;
  return spec;
}

DeploymentSpec fleet_enc_spec() {
  TransformerConfig cfg = fleet_llm_model();
  cfg.name = "enc";
  cfg.ffn_dim = 96;
  cfg.ar_context = 16;
  cfg.mask = distmcu::model::MaskKind::bidirectional;
  cfg.validate();
  DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 4;
  spec.prefill_chunk_tokens = 4;
  return spec;
}

DeploymentSpec mixed_chat_spec() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "chat";
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 16;
  cfg.validate();
  DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 4;
  spec.prefill_chunk_tokens = 8;
  return spec;
}

DeploymentSpec mixed_classify_spec() {
  TransformerConfig cfg = TransformerConfig::mobile_bert();
  cfg.name = "classify";
  cfg.num_layers = 1;
  cfg.vocab_size = 512;
  cfg.ar_context = 16;
  cfg.prompt_len = 16;
  cfg.validate();
  DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 4;
  spec.precision = Precision::int8;
  spec.kv_layout = KvLayout::int8;
  spec.prefill_chunk_tokens = 8;
  return spec;
}

std::vector<NamedSpec> all_specs() {
  return {{"paper_tinyllama_8c", paper_spec()},
          {"fleet_llm_4c", fleet_llm_spec(4)},
          {"fleet_llm_2c", fleet_llm_spec(2)},
          {"fleet_enc_4c", fleet_enc_spec()},
          {"mixed_chat_4c", mixed_chat_spec()},
          {"mixed_classify_4c_int8", mixed_classify_spec()}};
}

}  // namespace perfbench

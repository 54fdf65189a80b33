//! The CLAIRE model zoo: architecturally faithful layer-by-layer
//! descriptions of all 19 AI algorithms used in the paper.
//!
//! Training set (Table I): ResNet-18, VGG-16, DenseNet-121,
//! MobileNetV2, PEANUT-RCNN, ResNet-50, Mixtral-8x7B, GPT-2,
//! Meta-Llama-3-8B, DPT-Large, DINOv2-large, Swin-T, Whisper-v3-large.
//!
//! Test set (Input #6): BERT-base, Graphormer, ViT-base, AST, DETR,
//! AlexNet.
//!
//! Every generator walks the published architecture and emits the same
//! layer records a `print(model)` dump would yield for the module types
//! the paper considers (Conv2d/Conv1d/Linear/activations/poolings plus
//! the printed Flatten/Permute modules of torchvision Swin). Modules
//! PyTorch applies functionally (e.g. `torch.flatten` in ResNet's
//! `forward`) are *not* printed and therefore not emitted, matching the
//! paper's extraction path.

mod cnn;
mod detection;
mod extended;
mod extended2;
mod llm;
mod transformer;

pub(crate) mod common;

pub use cnn::{alexnet, densenet121, mobilenet_v2, resnet18, resnet50, vgg16};
pub use detection::{detr, peanut_rcnn};
pub use extended::{convnext_tiny, distilgpt2, efficientnet_b0, mask_rcnn_r50, wav2vec2_base};
pub use extended2::{clip_vit_b32, t5_small, unet};
pub use llm::{
    gpt2, gpt2_decode, llama3_8b, llama3_8b_decode, mixtral_8x7b, mixtral_8x7b_decode,
    whisper_v3_large,
};
pub use transformer::{ast, bert_base, dinov2_large, dpt_large, graphormer, swin_t, vit_base};

use crate::Model;

/// A zoo table entry: the model's name and its constructor.
type Entry = (&'static str, fn() -> Model);

/// Every model [`by_name`] resolves, as `(name, constructor)` in paper
/// order: the training set, then the test set, then the extended test
/// set, then the models no set lists. The set functions read their
/// slices of this one table.
const ZOO: [Entry; 27] = [
    ("Resnet18", resnet18),
    ("VGG16", vgg16),
    ("Densenet121", densenet121),
    ("Mobilenetv2", mobilenet_v2),
    ("PEANUT RCNN", peanut_rcnn),
    ("Resnet50", resnet50),
    ("Mixtral-8x7B", mixtral_8x7b),
    ("GPT2", gpt2),
    ("Meta Llama-3-8B", llama3_8b),
    ("DPT-Large", dpt_large),
    ("DINOv2-large", dinov2_large),
    ("SWIN-T", swin_t),
    ("Whisperv3-large", whisper_v3_large),
    ("BERT-base", bert_base),
    ("Graphormer", graphormer),
    ("ViT-base", vit_base),
    ("AST", ast),
    ("DETR", detr),
    ("Alexnet", alexnet),
    ("Wav2Vec2-base", wav2vec2_base),
    ("DistilGPT2", distilgpt2),
    ("MaskRCNN-R50", mask_rcnn_r50),
    ("ConvNeXt-T", convnext_tiny),
    ("EfficientNet-B0", efficientnet_b0),
    ("UNet", unet),
    ("T5-small", t5_small),
    ("CLIP-ViT-B32", clip_vit_b32),
];

/// End of the training-set slice of [`ZOO`].
const TRAINING_END: usize = 13;
/// End of the test-set slice of [`ZOO`].
const TEST_END: usize = TRAINING_END + 6;
/// End of the extended-test-set slice of [`ZOO`].
const EXTENDED_END: usize = TEST_END + 5;

/// Builds every model of a [`ZOO`] slice, in table order.
fn build(entries: &[Entry]) -> Vec<Model> {
    entries.iter().map(|(_, build)| build()).collect()
}

/// The 13 training-set algorithms (paper Table I), in table order.
pub fn training_set() -> Vec<Model> {
    build(&ZOO[..TRAINING_END])
}

/// The 6 test-set algorithms (paper Input #6), in paper order.
pub fn test_set() -> Vec<Model> {
    build(&ZOO[TRAINING_END..TEST_END])
}

/// The five extended test algorithms, ordered to target C_4, C_5,
/// C_2, C_1 and the CNN/LLM boundary respectively.
pub fn extended_test_set() -> Vec<Model> {
    build(&ZOO[TEST_END..EXTENDED_END])
}

/// Looks an algorithm up by name, across the training, test and
/// extended test sets and the unlisted models. Builds only the named
/// model.
pub fn by_name(name: &str) -> Option<Model> {
    ZOO.iter()
        .find(|(entry, _)| *entry == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_has_thirteen_algorithms() {
        assert_eq!(training_set().len(), 13);
    }

    #[test]
    fn test_set_has_six_algorithms() {
        assert_eq!(test_set().len(), 6);
    }

    #[test]
    fn zoo_table_names_match_models_and_are_unique() {
        let mut names = Vec::new();
        for (name, build) in ZOO {
            assert_eq!(build().name(), name, "table name disagrees with its model");
            names.push(name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ZOO.len(), "duplicate zoo names");
    }

    /// The set functions return exactly the hand-kept paper lists the
    /// table replaced: same models, same order.
    #[test]
    fn set_functions_match_the_paper_lists() {
        let training = vec![
            resnet18(),
            vgg16(),
            densenet121(),
            mobilenet_v2(),
            peanut_rcnn(),
            resnet50(),
            mixtral_8x7b(),
            gpt2(),
            llama3_8b(),
            dpt_large(),
            dinov2_large(),
            swin_t(),
            whisper_v3_large(),
        ];
        let test = vec![
            bert_base(),
            graphormer(),
            vit_base(),
            ast(),
            detr(),
            alexnet(),
        ];
        let extended = vec![
            wav2vec2_base(),
            distilgpt2(),
            mask_rcnn_r50(),
            convnext_tiny(),
            efficientnet_b0(),
        ];
        assert_eq!(training_set(), training);
        assert_eq!(test_set(), test);
        assert_eq!(extended_test_set(), extended);
        let unlisted = vec![unet(), t5_small(), clip_vit_b32()];
        let all: Vec<Model> = [training, test, extended, unlisted].concat();
        let table: Vec<&str> = ZOO.iter().map(|(name, _)| *name).collect();
        let listed: Vec<&str> = all.iter().map(Model::name).collect();
        assert_eq!(table, listed, "table order is not paper order");
    }

    #[test]
    fn by_name_builds_an_equal_model_for_every_name() {
        for (name, build) in ZOO {
            assert_eq!(by_name(name), Some(build()), "{name}");
        }
        assert!(by_name("NotAModel").is_none());
        assert!(by_name("").is_none());
    }

    /// Paper Table I parameter counts, within a ±8 % modelling tolerance
    /// (we reconstruct architectures from their publications; the paper
    /// counted checkpoint tensors).
    #[test]
    fn table1_param_counts() {
        let expect_m: &[(&str, f64)] = &[
            ("Resnet18", 11.7),
            ("VGG16", 138.0),
            ("Densenet121", 7.98),
            ("Mobilenetv2", 3.5),
            ("PEANUT RCNN", 14.21),
            ("Resnet50", 25.5),
            ("Mixtral-8x7B", 46_700.0),
            ("GPT2", 137.0),
            ("Meta Llama-3-8B", 8_030.0),
            ("DPT-Large", 342.0),
            ("DINOv2-large", 304.0),
            ("SWIN-T", 29.0),
            ("Whisperv3-large", 1_540.0),
        ];
        for (name, want) in expect_m {
            let m = by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            let got = m.param_count() as f64 / 1.0e6;
            let rel = (got - want).abs() / want;
            assert!(
                rel < 0.08,
                "{name}: expected {want} M params, got {got:.2} M ({:.1} % off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn every_model_has_positive_compute() {
        for m in training_set().iter().chain(test_set().iter()) {
            assert!(m.macs() > 0, "{} has no MACs", m.name());
            assert!(m.layer_count() > 3, "{} suspiciously small", m.name());
        }
    }
}

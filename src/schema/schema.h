// The generic schema model of Section 8.1 of the paper.
//
// A schema is a rooted graph whose nodes are *elements* (tables, columns,
// XML elements/attributes, type definitions, keys, referential constraints,
// views, ER entities...). Elements are interconnected by four relationship
// types:
//
//   * containment    — physical containment; every element except the root
//                      has exactly one containment parent.
//   * aggregation    — weaker grouping (e.g. a compound key aggregates the
//                      columns of its table); multiple parents allowed.
//   * IsDerivedFrom  — abstracts IsA / IsTypeOf; models shared types. The
//                      members of the target type are implicitly members of
//                      the source element.
//   * reference      — from a RefInt element to the key it refers to.
//
// Containment alone forms a tree; the other relationships make the schema a
// general (possibly cyclic) graph. Cycles of containment + IsDerivedFrom are
// detected at schema-tree construction time (src/tree).

#ifndef CUPID_SCHEMA_SCHEMA_H_
#define CUPID_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "schema/data_type.h"
#include "util/status.h"

namespace cupid {

/// Index of an element within its Schema. Stable for the schema's lifetime.
using ElementId = int32_t;

/// Sentinel for "no element" (e.g. the root's parent).
inline constexpr ElementId kNoElement = -1;

/// Structural role of an element in the schema graph.
enum class ElementKind : uint8_t {
  kRoot = 0,      ///< the schema itself
  kContainer,     ///< table, XML element with children, class
  kAtomic,        ///< column, XML attribute, leaf XML element
  kTypeDef,       ///< shared type definition (XSD complexType, OO class type)
  kKey,           ///< primary/unique key (aggregates columns)
  kRefInt,        ///< referential constraint (foreign key, keyref, IDREF)
  kView,          ///< view definition (children = elements in the view)
  kEntity,        ///< ER entity (used by the DIKE baseline's input model)
  kRelationship,  ///< ER relationship
};

/// \brief Canonical name of an ElementKind ("Container", "RefInt", ...).
const char* ElementKindName(ElementKind k);

/// One node of the schema graph.
struct Element {
  std::string name;
  ElementKind kind = ElementKind::kAtomic;
  DataType data_type = DataType::kUnknown;
  /// Optional (non-required) element, Section 8.4 "Optionality".
  bool optional = false;
  /// Excluded from schema-tree construction (e.g. keys), Section 8.2.
  bool not_instantiated = false;
  /// Member of a key (influences the DIKE baseline's initial similarity).
  bool is_key = false;
  /// Free-text annotation (data-dictionary description).
  std::string documentation;
};

/// A directed edge of the schema graph.
enum class RelationshipType : uint8_t {
  kContainment = 0,
  kAggregation,
  kIsDerivedFrom,
  kReference,
};

/// \brief Canonical name of a RelationshipType.
const char* RelationshipTypeName(RelationshipType t);

/// \brief A rooted schema graph (Section 8.1).
///
/// Elements are created through AddElement / Schema-building helpers and are
/// addressed by ElementId. The root element (kind kRoot, id 0) is created by
/// the constructor and carries the schema name.
class Schema {
 public:
  /// Creates a schema whose root element is named `name`.
  explicit Schema(std::string name);

  /// \brief Adds an element contained by `parent` (kNoElement only valid for
  /// elements that are attached later or deliberately parentless, such as
  /// shared kTypeDef definitions hung off the root).
  ///
  /// Returns the id of the new element.
  ElementId AddElement(Element element, ElementId parent);

  /// \brief Adds an IsDerivedFrom edge: `from` derives from (is typed by)
  /// `to`. Members of `to` become implicit members of `from`.
  Status AddIsDerivedFrom(ElementId from, ElementId to);

  /// \brief Adds an aggregation edge: `from` (e.g. a key) aggregates `to`
  /// (e.g. a column).
  Status AddAggregation(ElementId from, ElementId to);

  /// \brief Adds a reference edge: `from` (a RefInt) references `to` (a key
  /// or container in the target structure).
  Status AddReference(ElementId from, ElementId to);

  // -- Accessors ------------------------------------------------------------

  const std::string& name() const { return elements_[0].name; }
  ElementId root() const { return 0; }
  int64_t num_elements() const {
    return static_cast<int64_t>(elements_.size());
  }
  bool Contains(ElementId id) const {
    return id >= 0 && id < num_elements();
  }

  const Element& element(ElementId id) const { return elements_[id]; }
  Element* mutable_element(ElementId id) { return &elements_[id]; }

  /// Containment parent (kNoElement for the root / detached elements).
  ElementId parent(ElementId id) const { return parents_[id]; }

  /// Containment children, in insertion order.
  const std::vector<ElementId>& children(ElementId id) const {
    return children_[id];
  }

  /// Outgoing IsDerivedFrom targets of `id`.
  const std::vector<ElementId>& derived_from(ElementId id) const {
    return derived_from_[id];
  }

  /// Elements aggregated by `id`.
  const std::vector<ElementId>& aggregates(ElementId id) const {
    return aggregates_[id];
  }

  /// Elements referenced by `id`.
  const std::vector<ElementId>& references(ElementId id) const {
    return references_[id];
  }

  /// \brief True if `id` has neither containment children nor IsDerivedFrom
  /// targets, i.e. it will be a leaf of the expanded schema tree.
  bool IsLeaf(ElementId id) const {
    return children_[id].empty() && derived_from_[id].empty();
  }

  /// \brief Dotted path of containment names from the root, e.g.
  /// "PO.POLines.Item.Qty". The root name is included.
  std::string PathName(ElementId id) const;

  /// \brief Inverts PathName ("PO.POLines.Item.Qty", or a parentless
  /// type's "AddressType.Street"): the element's id; kNoElement if absent.
  ElementId FindByPath(std::string_view dotted_path) const;

  /// \brief First element (in id order) named `name`, of any kind;
  /// kNoElement if absent.
  ElementId FindByName(std::string_view name) const;

  /// \brief All element ids in insertion order (0 = root).
  std::vector<ElementId> AllElements() const;

  /// \brief Ids of elements for which `kind` matches.
  std::vector<ElementId> ElementsOfKind(ElementKind kind) const;

  /// \brief Structural sanity checks: parent/child symmetry, edge targets in
  /// range, exactly one root, RefInt elements reference something.
  Status Validate() const;

 private:
  std::vector<Element> elements_;
  std::vector<ElementId> parents_;
  std::vector<std::vector<ElementId>> children_;
  std::vector<std::vector<ElementId>> derived_from_;
  std::vector<std::vector<ElementId>> aggregates_;
  std::vector<std::vector<ElementId>> references_;
};

}  // namespace cupid

#endif  // CUPID_SCHEMA_SCHEMA_H_

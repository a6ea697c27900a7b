#include "schema/schema.h"

#include <unordered_set>

namespace cupid {

const char* ElementKindName(ElementKind k) {
  switch (k) {
    case ElementKind::kRoot: return "Root";
    case ElementKind::kContainer: return "Container";
    case ElementKind::kAtomic: return "Atomic";
    case ElementKind::kTypeDef: return "TypeDef";
    case ElementKind::kKey: return "Key";
    case ElementKind::kRefInt: return "RefInt";
    case ElementKind::kView: return "View";
    case ElementKind::kEntity: return "Entity";
    case ElementKind::kRelationship: return "Relationship";
  }
  return "Unknown";
}

const char* RelationshipTypeName(RelationshipType t) {
  switch (t) {
    case RelationshipType::kContainment: return "Containment";
    case RelationshipType::kAggregation: return "Aggregation";
    case RelationshipType::kIsDerivedFrom: return "IsDerivedFrom";
    case RelationshipType::kReference: return "Reference";
  }
  return "Unknown";
}

Schema::Schema(std::string name) {
  Element root;
  root.name = std::move(name);
  root.kind = ElementKind::kRoot;
  root.data_type = DataType::kComplex;
  elements_.push_back(std::move(root));
  parents_.push_back(kNoElement);
  children_.emplace_back();
  derived_from_.emplace_back();
  aggregates_.emplace_back();
  references_.emplace_back();
}

ElementId Schema::AddElement(Element element, ElementId parent) {
  ElementId id = static_cast<ElementId>(elements_.size());
  elements_.push_back(std::move(element));
  parents_.push_back(parent);
  children_.emplace_back();
  derived_from_.emplace_back();
  aggregates_.emplace_back();
  references_.emplace_back();
  if (parent != kNoElement && Contains(parent)) {
    children_[parent].push_back(id);
  }
  return id;
}

Status Schema::AddIsDerivedFrom(ElementId from, ElementId to) {
  if (!Contains(from) || !Contains(to)) {
    return Status::InvalidArgument("IsDerivedFrom endpoint out of range");
  }
  derived_from_[from].push_back(to);
  return Status::OK();
}

Status Schema::AddAggregation(ElementId from, ElementId to) {
  if (!Contains(from) || !Contains(to)) {
    return Status::InvalidArgument("aggregation endpoint out of range");
  }
  aggregates_[from].push_back(to);
  return Status::OK();
}

Status Schema::AddReference(ElementId from, ElementId to) {
  if (!Contains(from) || !Contains(to)) {
    return Status::InvalidArgument("reference endpoint out of range");
  }
  references_[from].push_back(to);
  return Status::OK();
}

std::string Schema::PathName(ElementId id) const {
  if (!Contains(id)) return "";
  std::vector<ElementId> chain;
  for (ElementId cur = id; cur != kNoElement; cur = parents_[cur]) {
    chain.push_back(cur);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += '.';
    out += elements_[*it].name;
  }
  return out;
}

ElementId Schema::FindByPath(std::string_view dotted_path) const {
  size_t start = 0;
  ElementId cur = kNoElement;
  while (start <= dotted_path.size()) {
    size_t dot = dotted_path.find('.', start);
    std::string_view part =
        dotted_path.substr(start, dot == std::string_view::npos
                                      ? std::string_view::npos
                                      : dot - start);
    if (cur == kNoElement) {
      // The root (id 0, so it wins a tie) or a parentless type, as PathName.
      for (ElementId e = 0; e < num_elements() && cur == kNoElement; ++e) {
        if (parents_[e] == kNoElement && elements_[e].name == part) cur = e;
      }
      if (cur == kNoElement) return kNoElement;
    } else {
      ElementId next = kNoElement;
      for (ElementId c : children_[cur]) {
        if (elements_[c].name == part) {
          next = c;
          break;
        }
      }
      if (next == kNoElement) return kNoElement;
      cur = next;
    }
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return cur;
}

ElementId Schema::FindByName(std::string_view name) const {
  for (ElementId id = 0; id < num_elements(); ++id) {
    if (elements_[id].name == name) return id;
  }
  return kNoElement;
}

std::vector<ElementId> Schema::AllElements() const {
  std::vector<ElementId> ids(elements_.size());
  for (size_t i = 0; i < elements_.size(); ++i) {
    ids[i] = static_cast<ElementId>(i);
  }
  return ids;
}

std::vector<ElementId> Schema::ElementsOfKind(ElementKind kind) const {
  std::vector<ElementId> out;
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (elements_[i].kind == kind) out.push_back(static_cast<ElementId>(i));
  }
  return out;
}

Status Schema::Validate() const {
  if (elements_.empty() || elements_[0].kind != ElementKind::kRoot) {
    return Status::Internal("schema has no root element");
  }
  for (ElementId id = 0; id < num_elements(); ++id) {
    ElementId p = parents_[id];
    if (id == 0) {
      if (p != kNoElement) {
        return Status::Internal("root element has a parent");
      }
      continue;
    }
    if (elements_[id].kind == ElementKind::kRoot) {
      return Status::Internal("multiple root elements");
    }
    if (p != kNoElement) {
      if (!Contains(p)) {
        return Status::Internal("parent id out of range for element '" +
                                elements_[id].name + "'");
      }
      bool found = false;
      for (ElementId c : children_[p]) found |= (c == id);
      if (!found) {
        return Status::Internal("parent/child asymmetry at element '" +
                                elements_[id].name + "'");
      }
    }
    for (ElementId t : derived_from_[id]) {
      if (!Contains(t)) return Status::Internal("dangling IsDerivedFrom edge");
    }
    for (ElementId t : aggregates_[id]) {
      if (!Contains(t)) return Status::Internal("dangling aggregation edge");
    }
    for (ElementId t : references_[id]) {
      if (!Contains(t)) return Status::Internal("dangling reference edge");
    }
    if (elements_[id].kind == ElementKind::kRefInt &&
        references_[id].empty()) {
      return Status::Internal("RefInt element '" + elements_[id].name +
                              "' references nothing");
    }
  }
  // Containment must be acyclic (each element one parent; reaching the root).
  for (ElementId id = 0; id < num_elements(); ++id) {
    std::unordered_set<ElementId> seen;
    ElementId cur = id;
    while (cur != kNoElement) {
      if (!seen.insert(cur).second) {
        return Status::CycleDetected("containment cycle involving element '" +
                                     elements_[id].name + "'");
      }
      cur = parents_[cur];
    }
  }
  return Status::OK();
}

}  // namespace cupid
